#include "em/io_stats.hpp"

#include <ostream>

namespace emsplit {

std::ostream& operator<<(std::ostream& os, const IoStats& s) {
  os << "{reads=" << s.reads << ", writes=" << s.writes
     << ", total=" << s.total();
  if (s.retries > 0) os << ", retries=" << s.retries;
  if (s.worker_retries > 0) os << ", worker_retries=" << s.worker_retries;
  if (s.bucket_hits > 0) os << ", bucket_hits=" << s.bucket_hits;
  return os << "}";
}

}  // namespace emsplit
