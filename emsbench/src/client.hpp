// client.hpp — a closed-loop, windowed, pipelined client for the service's
// line protocol over a Unix-domain socket.
//
// One Conn is one connection.  run() keeps at most `window` requests in
// flight: it writes while it reads, on a non-blocking socket under poll(),
// so neither side can fill its send buffer while the other stops reading.
// Every reply is matched in order against the request's expected reply text
// (prepared from a host oracle before the timed section): equal bytes are a
// success.  SHED is the server's structured "retry later", so a shed request
// is sent again after a short backoff, up to kMaxSheds times; its latency
// runs from the first send.  An ERR to REFRESH (a rebuild refused for memory
// under load) is retried the same way.  Other ERR replies, any other bytes,
// a request shed too often, and every request without a reply when the
// connection ends or the deadline passes are failures; other bytes are also
// wrong answers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace emsbench {

/// SHED replies one request may receive before it counts as failed.
inline constexpr std::uint32_t kMaxSheds = 200;

/// One request line and the reply it must get.
struct Request {
  std::string line;            ///< with the trailing newline
  std::uint32_t answer = 0;    ///< index into the shared answer table
  bool multiline = false;      ///< an OK reply runs to an END line
};

/// Tallies of one run() call.
struct ConnTally {
  std::uint64_t sent = 0;             ///< distinct requests sent
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;             ///< SHED (and REFRESH ERR) replies, retried
  std::uint64_t shed_out = 0;         ///< requests shed kMaxSheds times
  std::uint64_t err = 0;
  std::uint64_t wrong = 0;
  std::uint64_t missing = 0;
  std::uint64_t refreshes = 0;        ///< REFRESH requests sent
  std::uint64_t refresh_failed = 0;   ///< REFRESH without an "OK <epoch>"
  std::vector<double> latency_s;      ///< per request; failures are -1
  std::vector<double> refresh_s;      ///< per REFRESH round trip
  Clock::time_point begin, end;       ///< run() entry and exit
  std::string first_bad;              ///< first unexpected reply, for logs

  /// Requests that never got their expected reply.
  [[nodiscard]] std::uint64_t failed() const {
    return shed_out + err + wrong + missing + refresh_failed;
  }
  void clear() {
    const std::size_t cap = latency_s.capacity();
    *this = ConnTally{};
    latency_s.reserve(cap);
  }
};

/// Every request latency of `tallies` into `out` (cleared first), a failed
/// request counted as `worst_s`, the worst latency there is.
void merge_latencies(const std::vector<ConnTally>& tallies, double worst_s,
                     std::vector<double>& out);

/// Connect to a Unix socket, retrying until the listener accepts or
/// `timeout_s` passes.  Returns the fd, or -1.
int connect_unix(const std::string& path, double timeout_s);

class Conn {
 public:
  explicit Conn(int fd) : fd_(fd) {}
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] bool open() const noexcept { return fd_ >= 0; }

  /// Send `reqs` in order with at most `window` in flight; after every
  /// `refresh_every` queries (0 = never), counted across calls, also send
  /// REFRESH.  Gives up at `deadline`.  Results accumulate into `tally`.
  void run(const std::vector<Request>& reqs,
           const std::vector<std::string>& answers, std::size_t window,
           std::size_t refresh_every, Clock::time_point deadline,
           ConnTally& tally);

  /// One blocking request/reply exchange (set-up and control lines): sends
  /// `line` and returns the full reply text ("" on failure or timeout).
  std::string call(const std::string& line, bool multiline, double timeout_s);

  /// Close the connection now.
  void close();

 private:
  int fd_ = -1;
  std::string in_;
  std::size_t since_refresh_ = 0;  ///< queries sent since the last REFRESH
};

/// Length of the complete reply at `pos` of `buf` (0 if incomplete).  A
/// multi-line OK reply ends with an "END" line; everything else is one line.
[[nodiscard]] std::size_t reply_length(const std::string& buf, std::size_t pos,
                                       bool multiline);

}  // namespace emsbench
