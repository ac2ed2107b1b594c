// pass_engine.cpp — trace sink, the pass envelope's record step, and the
// JSON-lines export behind `--trace=FILE`.
#include "em/pass_engine.hpp"

#include <cstdio>

namespace emsplit {

void PassTraceLog::record(PassTrace trace) {
  rows_.push_back(std::move(trace));
}

void PassTraceLog::reset() { rows_.clear(); }

IoStats PassTraceLog::total_io() const noexcept {
  IoStats total;
  for (const PassTrace& t : rows_) {
    if (!t.resumed) total += t.io.base();
  }
  return total;
}

PassRunner::Scope::~Scope() {
  PassTraceLog* log = runner_.ctx_->pass_trace();
  if (log == nullptr) return;
  PassTrace t;
  t.job = runner_.plan_.job;
  t.pass = label_;
  t.index = index_;
  t.io = runner_.ctx_->io() - start_io_;
  t.bytes = t.io.total() * runner_.ctx_->block_bytes();
  t.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  t.resumed = false;
  t.hwm_bytes = runner_.ctx_->take_pass_hwm();
  t.worker_io = runner_.ctx_->take_pass_workers();
  t.supervision = runner_.ctx_->take_supervision();
  log->record(std::move(t));
}

void PassRunner::note_resumed(const char* label, std::uint64_t passes) {
  if (passes == 0) return;
  seq_ += passes;
  PassTraceLog* log = ctx_->pass_trace();
  if (log == nullptr) return;
  PassTrace t;
  t.job = plan_.job;
  t.pass = label;
  t.index = seq_;
  t.resumed = true;
  log->record(std::move(t));
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

}  // namespace

std::string pass_trace_json(const PassTrace& t) {
  std::string s = "{\"job\":\"";
  append_escaped(s, t.job);
  s += "\",\"pass\":\"";
  append_escaped(s, t.pass);
  s += "\",\"index\":" + std::to_string(t.index);
  s += ",\"reads\":" + std::to_string(t.io.reads);
  s += ",\"writes\":" + std::to_string(t.io.writes);
  s += ",\"retries\":" + std::to_string(t.io.retries);
  s += ",\"worker_retries\":" + std::to_string(t.io.worker_retries);
  s += ",\"bytes\":" + std::to_string(t.bytes);
  s += ",\"hwm_bytes\":" + std::to_string(t.hwm_bytes);
  s += ",\"seconds\":";
  append_double(s, t.seconds);
  s += ",\"resumed\":";
  s += t.resumed ? "true" : "false";
  s += ",\"workers\":[";
  for (std::size_t i = 0; i < t.worker_io.size(); ++i) {
    if (i > 0) s += ',';
    const PassWorkerIo& w = t.worker_io[i];
    s += "{\"id\":" + std::to_string(w.worker) +
         ",\"reads\":" + std::to_string(w.io.reads) +
         ",\"writes\":" + std::to_string(w.io.writes) +
         ",\"retries\":" + std::to_string(w.io.retries) +
         ",\"worker_retries\":" + std::to_string(w.io.worker_retries) +
         ",\"peak_bytes\":" + std::to_string(w.peak_bytes) + ",\"seconds\":";
    append_double(s, w.seconds);
    s += ",\"barrier_seconds\":";
    append_double(s, w.barrier_seconds);
    s += "}";
  }
  s += "],\"supervision\":[";
  for (std::size_t i = 0; i < t.supervision.size(); ++i) {
    if (i > 0) s += ',';
    const SupervisionEvent& e = t.supervision[i];
    s += "{\"round\":" + std::to_string(e.round) +
         ",\"worker\":" + std::to_string(e.worker) + ",\"kind\":\"";
    append_escaped(s, e.kind);
    s += "\",\"detail\":\"";
    append_escaped(s, e.detail);
    s += "\"}";
  }
  s += "]}";
  return s;
}

bool write_pass_trace_jsonl(const PassTraceLog& log, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = true;
  for (const PassTrace& t : log.rows()) {
    const std::string line = pass_trace_json(t) + "\n";
    if (std::fwrite(line.data(), 1, line.size(), f) != line.size()) {
      ok = false;
      break;
    }
  }
  if (std::fclose(f) != 0) ok = false;
  return ok;
}

}  // namespace emsplit
