// Simulated TCP: 3-way handshake, MSS segmentation, cumulative ACKs,
// delayed-ACK with piggybacking, in-order delivery with a reassembly buffer,
// RTO-based retransmission, and FIN/RST teardown.
//
// The subset is deliberately small but *real*: connection setup costs one
// round trip, which is exactly the behaviour behind the paper's Table 3
// (Flash methods that open a fresh connection inflate the measured RTT by
// one handshake).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/address.h"
#include "net/packet.h"
#include "sim/arena.h"
#include "sim/callback.h"
#include "sim/simulation.h"

namespace bnm::net {

class Host;

/// Application callbacks for one connection. All are optional. on_data
/// hands out an immutable payload view aliasing the sender's buffer — no
/// bytes are copied on the delivery path; call as_vector()/as_string() (or
/// keep the view) as needed.
struct TcpCallbacks {
  sim::SmallFunction<void()> on_connect;  ///< handshake complete (client side)
  sim::SmallFunction<void(const Payload&)> on_data;
  sim::SmallFunction<void()> on_close;  ///< peer sent FIN
  sim::SmallFunction<void()> on_reset;  ///< connection aborted by RST
};

struct TcpConfig {
  std::size_t mss = 1460;
  /// Send window: maximum unacknowledged bytes in flight. ACKs clock out
  /// further segments (keeps bursts below link queue limits, like a real
  /// advertised window does). The default covers the testbed's
  /// bandwidth-delay product (100 Mbps x 50 ms = 625 KB), matching the
  /// window-scaled stacks of the paper's era.
  std::size_t send_window = 1024 * 1024;
  sim::Duration delayed_ack = sim::Duration::micros(500);
  sim::Duration rto_initial = sim::Duration::millis(200);
  sim::Duration rto_max = sim::Duration::seconds(4);
  /// Give up (reset the connection) after this many *consecutive*
  /// retransmissions without forward progress.
  std::uint64_t max_retransmissions = 16;
  /// Fast retransmit: resend the first unacked segment after this many
  /// duplicate ACKs (RFC 5681's 3), without waiting for the RTO.
  std::uint32_t dupack_threshold = 3;
  /// Congestion control (slow start + AIMD). Off by default: the paper's
  /// single-packet probes never exercise it, and the deterministic
  /// fixed-window behaviour keeps calibration simple. Enable for realistic
  /// bulk-transfer dynamics (see the throughput ablations).
  bool congestion_control = false;
  std::size_t initial_cwnd_segments = 10;  ///< IW10, era-appropriate
  sim::Duration time_wait = sim::Duration::millis(1);
  /// RFC 7323 timestamp option (TSval/TSecr). Off by default: the option adds
  /// 12 bytes to every segment, which shifts serialization delay and would
  /// perturb every calibrated deterministic result; passive-estimation
  /// scenarios opt in. Negotiated on SYN/SYN-ACK — both ends must enable it.
  bool timestamps = false;
  /// Tick of the timestamp clock (Linux-like 1 ms per TSval increment).
  sim::Duration ts_granule = sim::Duration::millis(1);
  /// Added to the tick count when stamping TSval; lets tests start the clock
  /// near 2^32 to exercise wraparound. Defaults to 1 so the simulation epoch
  /// never emits TSval 0 — a zero would be indistinguishable from the
  /// TSecr "no echo yet" sentinel when the peer echoes it back.
  std::uint32_t ts_offset = 1;
};

class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  enum class State {
    kClosed,
    kSynSent,
    kSynRcvd,
    kEstablished,
    kFinWait1,
    kFinWait2,
    kCloseWait,
    kLastAck,
    kClosing,
    kTimeWait,
  };
  static const char* state_name(State s);

  /// Constructed via Host::tcp_connect / Host's listener path only.
  TcpConnection(Host& host, FourTuple tuple, TcpConfig config, bool initiator,
                std::uint32_t isn);

  // Not copyable/movable: the host demux map holds shared_ptrs to us.
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  void set_callbacks(TcpCallbacks cbs) {
    cbs_ = std::move(cbs);
    ++cbs_generation_;
  }

  /// Queue application bytes; segments go out subject to MSS. Segmentation
  /// takes zero-copy sub-views of the queued buffers (a deep copy happens
  /// only when one segment spans two queued buffers).
  void send(Payload data);
  void send(std::vector<std::uint8_t> data);
  void send(const std::string& data);

  /// Graceful close: FIN after the send buffer drains.
  void close();
  /// Abortive close: RST immediately.
  void abort();

  State state() const { return state_; }
  bool established() const { return state_ == State::kEstablished; }
  const FourTuple& tuple() const { return tuple_; }

  // Counters for tests and capture audits.
  std::uint64_t segments_sent() const { return segments_sent_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t fast_retransmissions() const { return fast_retransmissions_; }
  std::uint64_t bytes_delivered() const { return bytes_delivered_; }
  /// Current RTO (doubles per consecutive timeout, clamped at rto_max).
  sim::Duration rto_current() const { return rto_current_; }
  /// Consecutive RTO fires without forward progress.
  std::uint64_t consecutive_rtos() const { return consecutive_rtos_; }
  /// Effective send window right now (min of cwnd and the configured
  /// window when congestion control is on).
  std::size_t effective_window() const;
  double cwnd_bytes() const { return cwnd_; }
  /// True once RFC 7323 timestamps were negotiated on this connection.
  bool timestamps_negotiated() const { return ts_ok_; }
  /// TS.Recent: the peer TSval that our next ACK will echo.
  std::uint32_t ts_recent() const { return ts_recent_; }

  // --- Host-internal entry points (not for applications) ---
  void start_active_open();
  void on_segment(const Packet& segment);

 private:
  void enter(State next);
  void pump_send();
  /// Zero-copy view of the next `take` bytes of the send queue; dequeues
  /// what it returns. Deep-copies only when `take` spans queued buffers.
  Payload dequeue_chunk(std::size_t take);
  void transmit_segment(Payload chunk, bool fin);
  void send_control(TcpFlags flags, std::uint32_t seq);
  void send_ack_now();
  void schedule_delayed_ack();
  void handle_ack(std::uint32_t ack, bool pure_ack = false);
  void deliver_in_order(const Packet& segment);
  void maybe_send_fin();
  void arm_rto();
  void cancel_rto();
  void on_rto_fire();
  void deregister();
  /// Run the application callback in `slot`. The callable is moved out for
  /// the call, because it may replace this connection's callbacks (the
  /// HTTP client re-arms them per request) and must not be destroyed while
  /// it runs; it is moved back unless set_callbacks() ran meanwhile.
  template <typename Fn, typename... Args>
  void notify(Fn TcpCallbacks::*slot, const Args&... args) {
    Fn cb = std::move(cbs_.*slot);
    if (!cb) return;
    const std::uint64_t generation = cbs_generation_;
    cb(args...);
    if (generation == cbs_generation_) cbs_.*slot = std::move(cb);
  }
  /// Current TSval: simulated time quantized to ts_granule, plus ts_offset.
  std::uint32_t tsval_now() const;
  /// Attach the timestamp option to an outgoing segment (ts_ok_ only).
  void stamp_timestamps(Packet& pkt) const;
  /// RFC 7323 §4.3: TS.Recent tracks the TSval of the segment occupying the
  /// left edge of the receive window, so cumulative/delayed ACKs echo the
  /// *earliest* unacknowledged segment's clock.
  void note_ts_recent(const Packet& seg);

  Host& host_;
  FourTuple tuple_;
  TcpConfig config_;
  TcpCallbacks cbs_;
  /// Bumped by set_callbacks(); notify() uses it to tell whether the
  /// callback it is running replaced the connection's callbacks.
  std::uint64_t cbs_generation_ = 0;
  State state_ = State::kClosed;
  bool initiator_;

  // Send side.
  std::uint32_t iss_;       ///< initial send sequence
  std::uint32_t snd_una_;   ///< oldest unacked
  std::uint32_t snd_nxt_;   ///< next seq to send
  /// Queued application buffers, consumed front-to-first as zero-copy
  /// sub-views; send_buffered_ tracks the total queued byte count. The
  /// queue (like the retransmission queue and reassembly map below) lives
  /// in arena-backed storage: a connection dies with its host's testbed,
  /// inside one arena epoch.
  std::deque<Payload, sim::ArenaAllocator<Payload>> send_buffer_;
  std::size_t send_buffered_ = 0;
  bool fin_pending_ = false;
  bool fin_sent_ = false;

  struct Unacked {
    std::uint32_t seq;
    Packet packet;
  };
  std::deque<Unacked, sim::ArenaAllocator<Unacked>> rtx_queue_;
  sim::EventHandle rto_timer_;
  sim::Duration rto_current_;
  std::uint64_t consecutive_rtos_ = 0;

  // Receive side.
  std::uint32_t irs_ = 0;      ///< initial receive sequence
  std::uint32_t rcv_nxt_ = 0;  ///< next expected
  /// Out-of-order segments held as views aliasing the sender's buffers.
  std::map<std::uint32_t, Payload, std::less<std::uint32_t>,
           sim::ArenaAllocator<std::pair<const std::uint32_t, Payload>>>
      reassembly_;
  sim::EventHandle delack_timer_;
  bool fin_received_ = false;

  // RFC 7323 timestamp state.
  bool ts_ok_ = false;                  ///< negotiated on SYN/SYN-ACK
  bool ts_recent_valid_ = false;
  std::uint32_t ts_recent_ = 0;         ///< TSval our ACKs echo
  std::uint32_t last_ack_sent_ = 0;     ///< Last.ACK.sent (left window edge)

  std::uint64_t segments_sent_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t fast_retransmissions_ = 0;
  std::uint64_t bytes_delivered_ = 0;

  // Congestion state (used when config_.congestion_control is set).
  double cwnd_ = 0;      ///< bytes
  double ssthresh_ = 0;  ///< bytes; slow start below, AIMD above
  std::uint32_t dupacks_ = 0;
  std::uint32_t last_ack_seen_ = 0;

  void retransmit_first_unacked(const char* reason);
  void on_congestion_event();
};

/// Passive-open endpoint: hands established connections to `on_accept`.
class TcpListener {
 public:
  using AcceptCallback = std::function<void(std::shared_ptr<TcpConnection>)>;

  TcpListener(Port port, AcceptCallback on_accept)
      : port_{port}, on_accept_{std::move(on_accept)} {}

  Port port() const { return port_; }
  void notify_accept(std::shared_ptr<TcpConnection> conn) const {
    if (on_accept_) on_accept_(std::move(conn));
  }

 private:
  Port port_;
  AcceptCallback on_accept_;
};

}  // namespace bnm::net
