#ifndef XPTC_SERVER_CLIENT_H_
#define XPTC_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "server/protocol.h"

namespace xptc {
namespace server {

/// A parsed HTTP response as the blocking client reads it.
struct ClientHttpResponse {
  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;  // names lowered
  std::string body;
};

/// Blocking TCP client for the query server — the test suites' loopback
/// harness, the corpus-replay wire oracle, and exp17's load generator's
/// per-connection handle. One socket, both protocols: binary frames via
/// `Query`/`Batch`/`Ping`, HTTP via `Http`, and raw bytes via
/// `SendRaw`/`ReadFrame`/`ReadHttpResponse` for malformed-input tests.
/// Not thread-safe; one connection per thread.
class BlockingClient {
 public:
  /// Connects (blocking) with a receive timeout so broken servers fail
  /// tests instead of hanging them.
  static Result<BlockingClient> Connect(const std::string& host,
                                        uint16_t port,
                                        int recv_timeout_ms = 30'000);

  BlockingClient(BlockingClient&& other) noexcept;
  BlockingClient& operator=(BlockingClient&& other) noexcept;
  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;
  ~BlockingClient();

  /// One kQuery frame round-trip. Empty `tree_ids` = whole corpus.
  /// `trace_id` != 0 rides the flags-gated trace field and comes back in
  /// `ServiceResponse::trace_id` (the flight-recorder correlation handle).
  Result<ServiceResponse> Query(const std::string& query,
                                const std::vector<int>& tree_ids = {},
                                EvalMode mode = EvalMode::kNodeSet,
                                uint32_t deadline_ms = 0,
                                uint8_t dialect = kDialectXPath,
                                uint64_t trace_id = 0);
  /// One kBatch frame round-trip.
  Result<ServiceResponse> Batch(const std::vector<std::string>& queries,
                                const std::vector<int>& tree_ids = {},
                                EvalMode mode = EvalMode::kNodeSet,
                                uint32_t deadline_ms = 0,
                                uint8_t dialect = kDialectXPath,
                                uint64_t trace_id = 0);
  /// kPing → kPong round-trip.
  Result<ServiceResponse> Ping();

  /// One HTTP/1.1 request/response exchange on the connection.
  /// `extra_headers` entries are complete "Name: value\r\n" lines inserted
  /// verbatim (e.g. "X-Request-Id: deadbeef\r\n").
  Result<ClientHttpResponse> Http(const std::string& method,
                                  const std::string& target,
                                  const std::string& body = "",
                                  bool keep_alive = true,
                                  const std::string& extra_headers = "");

  /// Raw access for malformed-input tests.
  Status SendRaw(const std::string& bytes);
  Result<Frame> ReadFrame();
  Result<ClientHttpResponse> ReadHttpResponse();

  void Close();
  bool connected() const { return fd_ >= 0; }

 private:
  explicit BlockingClient(int fd) : fd_(fd) {}
  /// Sends a request frame and decodes the response frame.
  Result<ServiceResponse> RoundTrip(FrameType type, std::string payload);
  /// Reads more bytes into buf_; error on EOF/timeout.
  Status Fill();

  int fd_ = -1;
  std::string buf_;
  uint32_t next_request_id_ = 1;
};

}  // namespace server
}  // namespace xptc

#endif  // XPTC_SERVER_CLIENT_H_
