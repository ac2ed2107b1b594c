// file_io.hpp — streaming import/export between flat record files and
// external vectors.
//
// The CLI and examples move datasets between the host filesystem and a
// block device.  These helpers stream block-sized pieces, so a dataset
// never has to fit in host memory and the device-side cost stays the
// expected ceil(n/B) I/Os.  The file format is the natural one: a raw
// array of trivially copyable records, no header (the record type is the
// schema; the record count is the file size divided by the record size).
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "em/context.hpp"
#include "em/em_vector.hpp"
#include "em/stream.hpp"

namespace emsplit {

namespace detail {

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f != nullptr) std::fclose(f);
  }
};
using FileHandle = std::unique_ptr<std::FILE, FileCloser>;

inline FileHandle open_file(const std::string& path, const char* mode) {
  FileHandle f(std::fopen(path.c_str(), mode));
  if (f == nullptr) {
    throw std::runtime_error("file_io: cannot open " + path);
  }
  return f;
}

}  // namespace detail

/// Number of whole records of type T in `path`.
template <EmRecord T>
[[nodiscard]] std::size_t file_record_count(const std::string& path) {
  auto f = detail::open_file(path, "rb");
  if (std::fseek(f.get(), 0, SEEK_END) != 0) {
    throw std::runtime_error("file_io: cannot seek " + path);
  }
  const long bytes = std::ftell(f.get());
  if (bytes < 0) throw std::runtime_error("file_io: cannot tell " + path);
  if (static_cast<std::size_t>(bytes) % sizeof(T) != 0) {
    throw std::runtime_error("file_io: " + path +
                             " is not a whole number of records");
  }
  return static_cast<std::size_t>(bytes) / sizeof(T);
}

namespace detail {

/// Host staging size (in blocks of records) for file transfers: one batch of
/// the current tuning, clamped so staging plus the stream's own buffers
/// still fit the budget.
template <EmRecord T>
[[nodiscard]] std::size_t file_stage_blocks(const Context& ctx) {
  const std::size_t mem_blocks = ctx.mem_bytes() / ctx.block_bytes();
  const std::size_t spare =
      mem_blocks > ctx.batch_blocks() ? mem_blocks - ctx.batch_blocks() : 1;
  return std::max<std::size_t>(
      1, std::min(ctx.batch_blocks(), spare));
}

}  // namespace detail

/// Stream a flat record file onto the device as a new EmVector.
/// Host memory use: one batch of staging blocks plus the writer's buffers,
/// both budgeted.  The writer inherits the context's batching tuning.
template <EmRecord T>
[[nodiscard]] EmVector<T> import_file(Context& ctx, const std::string& path) {
  const std::size_t n = file_record_count<T>(path);
  auto f = detail::open_file(path, "rb");
  EmVector<T> vec(ctx, n);
  const std::size_t b = ctx.block_records<T>();
  const std::size_t stage = detail::file_stage_blocks<T>(ctx) * b;
  auto res = ctx.budget().reserve(stage * sizeof(T));
  std::vector<T> buf(stage);
  StreamWriter<T> writer(vec);
  std::size_t remaining = n;
  while (remaining > 0) {
    const std::size_t take = std::min(stage, remaining);
    if (std::fread(buf.data(), sizeof(T), take, f.get()) != take) {
      throw std::runtime_error("file_io: short read from " + path);
    }
    for (std::size_t i = 0; i < take; ++i) writer.push(buf[i]);
    remaining -= take;
  }
  writer.finish();
  return vec;
}

/// Stream an EmVector into a flat record file (overwriting it).
template <EmRecord T>
void export_file(const EmVector<T>& vec, const std::string& path) {
  auto f = detail::open_file(path, "wb");
  Context& ctx = vec.context();
  const std::size_t b = vec.block_records();
  const std::size_t stage = detail::file_stage_blocks<T>(ctx) * b;
  auto res = ctx.budget().reserve(stage * sizeof(T));
  std::vector<T> buf(stage);
  StreamReader<T> reader(vec);
  while (!reader.done()) {
    std::size_t filled = 0;
    while (filled < stage && !reader.done()) buf[filled++] = reader.next();
    if (std::fwrite(buf.data(), sizeof(T), filled, f.get()) != filled) {
      throw std::runtime_error("file_io: short write to " + path);
    }
  }
  if (std::fflush(f.get()) != 0) {
    throw std::runtime_error("file_io: flush failed for " + path);
  }
}

}  // namespace emsplit
