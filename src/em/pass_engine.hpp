// pass_engine.hpp — one lifecycle for every linear pass in the stack.
//
// Every algorithm in this repository — merge sort, the Aggarwal–Vitter
// multi-partition, distribution sort, intermixed selection, the §5
// splitters — is analyzed as a sequence of *linear passes*, and that is the
// unit memory, checkpointing and cost attribution attach to.
// Before this header each algorithm hand-wove that lifecycle (stream setup,
// budget reservation, journal publish/resume, phase scoping)
// itself; the pass engine owns it once:
//
//   * PassPlan      — the declarative identity of a job: a display name and
//                     the checkpoint fingerprint its passes publish under.
//   * PassRunner    — runs one pass under a uniform envelope: a PhaseProfile
//                     scope, an IoStats delta (retry-aware — retries travel
//                     in the snapshot next to the base counts) and wall
//                     time, emitted as a PassTrace record to the context's
//                     trace sink.  The envelope performs no I/O of its own,
//                     so a traced run is bit-identical to an untraced one —
//                     the determinism contract (docs/model.md) threads
//                     straight through.
//   * PassChain     — the sort-shaped checkpoint lifecycle: a linear chain of
//                     passes where each pass's output supersedes its
//                     predecessor.  Owns resume, ExtentGuard-protected
//                     publish, and the final take.  Without a journal it
//                     degrades to plain moves — the seed code path.
//   * DistributionCheckpoint — the worklist-shaped lifecycle: one root pass
//                     fans out into independent items (buckets) completed in
//                     any order, each published as it finishes.
//
// The engine is the single seam future observability work lands on
// (ROADMAP.md "Open items").
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "em/checkpoint.hpp"
#include "em/context.hpp"
#include "em/em_vector.hpp"
#include "em/io_stats.hpp"
#include "em/phase_profile.hpp"

namespace emsplit {

/// The declarative identity of one multi-pass job.
struct PassPlan {
  /// Display name grouping this job's trace records ("sort", "mpart", ...).
  const char* job = "job";
  /// Checkpoint fingerprint the job's passes publish under; 0 when the job
  /// is not checkpointable (only consulted next to a non-null journal).
  std::uint64_t fingerprint = 0;
};

/// One completed (or resumed) pass, as the engine records it.
struct PassTrace {
  std::string job;        ///< PassPlan::job
  std::string pass;       ///< pass label, e.g. "sort/merge-pass"
  std::uint64_t index = 0;  ///< 1-based position within the job
  IoStats io;             ///< I/O delta of the pass, retries included
  std::uint64_t bytes = 0;  ///< io.total() * block size
  double seconds = 0.0;   ///< wall time of the pass
  bool resumed = false;   ///< true: replayed from the journal, not re-run
  /// Peak data-dependent working set the pass reported through
  /// Context::note_pass_hwm (0 for passes whose footprint is static — the
  /// budget's peak() already covers those).
  std::uint64_t hwm_bytes = 0;
  /// Per-worker deltas of a distributed pass (Context::note_pass_workers),
  /// partitioning `io` exactly.  Empty for single-process passes.
  std::vector<PassWorkerIo> worker_io;
  /// Structured supervision events of the pass (Context::note_supervision):
  /// worker retries, timeouts, corrupt frames, give-ups, degradations.
  /// Empty on a failure-free pass.
  std::vector<SupervisionEvent> supervision;
};

/// Sink for PassTrace records.  Attach one to a Context (set_pass_trace) and
/// every engine-run pass appends a row; detached (the default) the engine
/// records nothing.  Main-thread only, like PhaseProfile.
class PassTraceLog {
 public:
  void record(PassTrace trace);
  [[nodiscard]] const std::vector<PassTrace>& rows() const noexcept {
    return rows_;
  }
  void reset();

  /// Sum of the base I/O counts over all non-resumed rows.
  [[nodiscard]] IoStats total_io() const noexcept;

 private:
  std::vector<PassTrace> rows_;
};

/// Runs the passes of one job under the uniform envelope.  Construct one per
/// job invocation; `run` executes a pass body and records its trace, whether
/// the body returns or throws (a faulted pass is still accounted).
class PassRunner {
 public:
  PassRunner(Context& ctx, PassPlan plan) : ctx_(&ctx), plan_(plan) {}

  PassRunner(const PassRunner&) = delete;
  PassRunner& operator=(const PassRunner&) = delete;

  [[nodiscard]] Context& ctx() const noexcept { return *ctx_; }
  [[nodiscard]] const PassPlan& plan() const noexcept { return plan_; }

  /// Execute one pass: opens a PhaseProfile scope under `label`, snapshots
  /// the device counters and the clock, runs `fn`, and emits a PassTrace.
  /// The envelope performs no I/O and makes no geometry decision, so wrapped
  /// and unwrapped runs are bit-identical.
  template <typename Fn>
  auto run(const char* label, Fn&& fn) {
    Scope scope(*this, label);
    return std::forward<Fn>(fn)();
  }

  /// Record that the journal already held `passes` completed passes for this
  /// job (one trace row, `resumed = true`), keeping the pass index honest.
  void note_resumed(const char* label, std::uint64_t passes);

 private:
  class Scope {
   public:
    Scope(PassRunner& runner, const char* label)
        : runner_(runner),
          label_(label),
          phase_(runner.ctx_->profile(), label),
          index_(++runner.seq_),
          start_io_(runner.ctx_->io()),
          start_(std::chrono::steady_clock::now()) {
      // Stale high-water marks, worker rows or supervision events from
      // outside any pass must not leak into this pass's row.
      (void)runner.ctx_->take_pass_hwm();
      (void)runner.ctx_->take_pass_workers();
      (void)runner.ctx_->take_supervision();
    }

    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PassRunner& runner_;
    const char* label_;
    ScopedPhase phase_;
    std::uint64_t index_;
    IoStats start_io_;
    std::chrono::steady_clock::time_point start_;
  };

  Context* ctx_;
  PassPlan plan_;
  std::uint64_t seq_ = 0;
};

/// Sort-shaped checkpoint lifecycle: passes form a linear chain, each pass's
/// output (an extent + run offsets) superseding its predecessor's.  With a
/// journal attached, each installed pass is published under the plan's
/// fingerprint via an ExtentGuard (a failed journal append frees the pass
/// instead of leaking it), the chain resumes from journaled state on
/// construction, and `take` retires the job.  Without a journal every
/// operation is a plain move — exactly the seed code path.
template <EmRecord T>
class PassChain {
 public:
  /// Offsets travel as the journal stores them; on LP64 this is the same
  /// type as the algorithms' std::vector<std::size_t>.
  using Offsets = std::vector<std::uint64_t>;

  PassChain(PassRunner& runner, const char* resume_label)
      : ctx_(&runner.ctx()),
        ckpt_(ctx_->checkpoint()),
        fp_(runner.plan().fingerprint) {
    if (ckpt_ == nullptr) return;
    if (auto st = ckpt_->resume_sort(fp_)) {
      pass_ = st->pass;
      data_ = EmVector<T>::adopt(*ctx_, st->extent, st->size, /*owning=*/false);
      offsets_ = std::move(st->offsets);
      resumed_ = true;
      runner.note_resumed(resume_label, pass_);
    }
  }

  /// True when journaled state was adopted; the caller skips the passes the
  /// journal already holds (the chain's `data`/`offsets` are the resume
  /// point).
  [[nodiscard]] bool resumed() const noexcept { return resumed_; }
  [[nodiscard]] const EmVector<T>& data() const noexcept { return data_; }
  /// Mutable head access for in-place passes (e.g. distribution sort's final
  /// segment sort, which rewrites the installed extent block for block).
  [[nodiscard]] EmVector<T>& data_mut() noexcept { return data_; }
  [[nodiscard]] const Offsets& offsets() const noexcept { return offsets_; }
  [[nodiscard]] std::uint64_t pass() const noexcept { return pass_; }

  /// Install the next pass's output as the chain head.  Journaled: the
  /// extent moves vector → guard → journal, and the chain keeps a non-owning
  /// view (journal ownership is what keeps checkpointed blocks alive across
  /// a mid-pass unwind).  Unjournaled: plain moves.
  void install(EmVector<T> next, Offsets offsets) {
    ++pass_;
    if (ckpt_ == nullptr) {
      data_ = std::move(next);
      offsets_ = std::move(offsets);
      return;
    }
    const std::size_t size = next.size();
    ExtentGuard extent(ctx_->device(), next.release_extent());
    ckpt_->publish_sort_pass(fp_, pass_, extent.range(), size, offsets);
    data_ = EmVector<T>::adopt(*ctx_, extent.release(), size, /*owning=*/false);
    offsets_ = std::move(offsets);
  }

  /// Hand the final pass's output to the caller (owning) and retire the job.
  [[nodiscard]] EmVector<T> take() {
    if (ckpt_ == nullptr) return std::move(data_);
    const std::size_t size = data_.size();
    return EmVector<T>::adopt(*ctx_, ckpt_->take_sort_extent(fp_), size,
                              /*owning=*/true);
  }

 private:
  Context* ctx_;
  CheckpointJournal* ckpt_;
  std::uint64_t fp_;
  EmVector<T> data_;
  Offsets offsets_;
  std::uint64_t pass_ = 0;
  bool resumed_ = false;
};

/// One scratch bucket a distribution pass produced for further recursion:
/// `scratch` holds the bucket's records, destined for output records
/// [out_lo, out_lo + scratch.size()), with the enclosed split ranks made
/// relative to the bucket.
template <EmRecord T>
struct PendingBucket {
  EmVector<T> scratch;
  std::vector<std::uint64_t> ranks;
  std::uint64_t out_lo = 0;
};

/// Worklist-shaped checkpoint lifecycle (multi-partition's root): one root
/// pass produces an output extent plus a list of independent pending items;
/// each item's completion is published individually, so a crash repays only
/// the interrupted item.  Requires a journal (the unjournaled partition root
/// never constructs one — it is a single recursive pass).
template <EmRecord T>
class DistributionCheckpoint {
 public:
  DistributionCheckpoint(PassRunner& runner, const char* resume_label)
      : ctx_(&runner.ctx()),
        ckpt_(ctx_->checkpoint()),
        fp_(runner.plan().fingerprint) {
    st_ = ckpt_->resume_part(fp_);
    if (st_.has_value()) {
      std::uint64_t done = 1;  // the root pass itself
      for (const auto& b : st_->buckets) done += b.done ? 1 : 0;
      runner.note_resumed(resume_label, done);
    }
  }

  [[nodiscard]] bool resumed() const noexcept { return st_.has_value(); }

  /// Publish the completed root pass: the output extent, every pending
  /// bucket's extent and the spans realized so far move to the journal in
  /// one entry.  Extents leave their vectors here but reach journal
  /// ownership only inside publish — ExtentGuards cover the window, so a
  /// failed append (or an allocation failure while assembling the entry)
  /// frees every bucket instead of leaking it.
  void publish_root(EmVector<T> out, std::uint64_t n,
                    std::vector<PendingBucket<T>> pending,
                    const std::vector<CkptSpan>& spans) {
    std::vector<ExtentGuard> guards;
    guards.reserve(pending.size() + 1);
    std::vector<CheckpointJournal::PartBucket> buckets;
    buckets.reserve(pending.size());
    for (auto& pb : pending) {
      CheckpointJournal::PartBucket b;
      b.size = pb.scratch.size();
      guards.emplace_back(ctx_->device(), pb.scratch.release_extent());
      b.extent = guards.back().range();
      b.out_lo = pb.out_lo;
      b.ranks = std::move(pb.ranks);
      buckets.push_back(std::move(b));
    }
    CheckpointJournal::PartState fresh;
    guards.emplace_back(ctx_->device(), out.release_extent());
    fresh.out = guards.back().range();
    fresh.n = n;
    fresh.spans = spans;
    fresh.buckets = buckets;
    ckpt_->publish_part_root(fp_, fresh.out, n, std::move(buckets), spans);
    for (auto& g : guards) (void)g.release();  // the journal owns them now
    st_ = std::move(fresh);
  }

  /// The journaled state: output extent, spans realized so far, and the
  /// bucket worklist (completed items flagged `done`).
  [[nodiscard]] const CheckpointJournal::PartState& state() const noexcept {
    return *st_;
  }

  /// Non-owning view over the journal-held output extent.
  [[nodiscard]] EmVector<T> adopt_out() const {
    return EmVector<T>::adopt(*ctx_, st_->out,
                              static_cast<std::size_t>(st_->n),
                              /*owning=*/false);
  }

  /// Non-owning view over pending item `q`'s scratch extent.
  [[nodiscard]] EmVector<T> adopt_item(std::size_t q) const {
    const auto& b = st_->buckets[q];
    return EmVector<T>::adopt(*ctx_, b.extent,
                              static_cast<std::size_t>(b.size),
                              /*owning=*/false);
  }

  /// Publish item `q`'s completion (its realized spans, absolute positions);
  /// the journal frees the item's scratch extent.
  void publish_item_done(std::size_t q, const std::vector<CkptSpan>& spans) {
    ckpt_->publish_part_bucket_done(fp_, q, spans);
  }

  /// Hand the finished output extent to the caller and retire the job.
  [[nodiscard]] BlockRange take_out() { return ckpt_->take_part_out(fp_); }

 private:
  Context* ctx_;
  CheckpointJournal* ckpt_;
  std::uint64_t fp_;
  std::optional<CheckpointJournal::PartState> st_;
};

/// One PassTrace row as a single-line JSON object — the `--trace=FILE`
/// JSON-lines row and the bench binaries' per-pass tag.
[[nodiscard]] std::string pass_trace_json(const PassTrace& trace);

/// Dump a whole log as JSON-lines, one row per line.  Returns false when the
/// file could not be written (best-effort: losing a trace loses nothing but
/// observability).
bool write_pass_trace_jsonl(const PassTraceLog& log, const std::string& path);

/// Convert an algorithm's span list to the journal's representation.
template <typename Span>
std::vector<CkptSpan> to_ckpt_spans(const std::vector<Span>& spans) {
  std::vector<CkptSpan> out;
  out.reserve(spans.size());
  for (const auto& s : spans) out.push_back({s.lo, s.hi, s.sorted});
  return out;
}

}  // namespace emsplit
