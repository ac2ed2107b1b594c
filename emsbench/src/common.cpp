// common.cpp — see common.hpp.

#include "common.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace emsbench {

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

namespace {

/// A "Name:   1234 kB" field of /proc/self/status, in bytes.
std::uint64_t status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::stoull(line.substr(key.size())) * 1024;
    }
  }
  throw std::runtime_error(std::string("no ") + field + " in /proc/self/status");
}

}  // namespace

std::uint64_t rss_bytes() { return status_kb("VmRSS"); }
std::uint64_t peak_rss_bytes() { return status_kb("VmHWM"); }

void reset_peak_rss() {
  // Writing 5 to clear_refs resets the peak RSS (VmHWM) to the current RSS.
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

std::vector<emsplit::Record> make_records(std::size_t n, std::uint64_t seed) {
  // Keys: the SplitMix64 finalizer is a bijection on 64-bit words, so
  // distinct inputs give distinct keys; the seed salts the inputs.  Shifted
  // to 62 bits so probes just above a key never overflow.
  const auto mix = [](std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  std::vector<emsplit::Record> v(n);
  const std::uint64_t salt = mix(seed * 0x9e3779b97f4a7c15ULL + 1);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = emsplit::Record{mix(i ^ salt) >> 2, i};
  }
  return v;
}

void write_records(const std::string& path,
                   const std::vector<emsplit::Record>& recs) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot create " + path);
  const bool ok = std::fwrite(recs.data(), sizeof(emsplit::Record), recs.size(),
                              f) == recs.size();
  if (std::fclose(f) != 0 || !ok) {
    throw std::runtime_error("cannot write " + path);
  }
}

void evict_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("cannot open " + path);
  const bool ok = ::fsync(fd) == 0 &&
                  ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED) == 0;
  ::close(fd);
  if (!ok) throw std::runtime_error("cannot evict " + path);
}

void make_dirs(const std::string& path) {
  std::filesystem::create_directories(path);
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace emsbench
