// Persistent worker sessions: the protocol and both ends of the pipe.
//
// PR 4's orchestrator spawned one `cicmon <sweep> --shard I/N` process per
// work item, so every item paid a process start-up and — for campaigns —
// a full golden run before doing any monitored work. A persistent session
// amortises both: the orchestrator spawns `cicmon worker <sweep> ...` once
// per worker slot and shard assignments stream over the worker's stdin with
// completed-artifact acks coming back over its stdout. Protocol v2 goes one
// step further: the orchestrator has already derived the golden state (or
// loaded it from the --golden-cache), so it *ships* it to each worker over
// the wire, and the worker skips even its one golden run — the measured
// residual of the v1 dispatch tax.
//
// The conversation, as length/checksum-framed records (support/wire.h):
//
//   worker  -> orchestrator   hello        {protocol, sweep, golden_key}
//   orchestrator -> worker    golden_offer {key, bytes, chunks}
//   worker  -> orchestrator   golden_ack   {accept}
//   orchestrator -> worker    <chunks> binary cicmon-chunk frames (if accepted)
//   worker  -> orchestrator   ready        {sweep, cells, params, golden}
//   orchestrator -> worker    assign       {shard, shard_count, out, force}
//   worker  -> orchestrator   done         {shard, shard_count, out, reused, wall_ms}
//                         or  error        {shard, shard_count, message}
//   orchestrator -> worker    shutdown     {}     (or just EOF on stdin)
//
// The handshake is split in two because deriving a campaign's SweepSpec IS
// the golden run: the hello carries only what the worker knows before paying
// it (the sweep name and its canonical golden key, fault/golden_ser.h), and
// the ready record carries the derived identity (cell count, every
// parameter), validated against the orchestrator's own spec exactly the way
// the v1 hello was — a worker built from skewed flags or a different binary
// fails before any shard is wasted on it.
//
// Golden shipping is strictly best-effort: a key mismatch, an empty offer,
// or a shipment that fails its checksums downgrades the worker to local
// derivation (golden: "derived" in the ready record) — never an error. The
// trust rules stay PR 5's: any malformed frame, unexpected record, EOF
// mid-record, or deadline overrun kills the whole session, because after a
// protocol violation there is no way to know what the worker actually did —
// the in-flight shard is re-enqueued through the ordinary retry budget and
// a fresh session takes the slot. A worker that dies mid-golden-chunk is
// the same case seen from the other side: the orchestrator's chunk write
// fails, the session is torn down, and the handshake-failure budget bounds
// how often that can repeat.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dist/work_queue.h"
#include "exp/sweep.h"
#include "support/subprocess.h"
#include "support/wire.h"

namespace cicmon::dist {

// Message-content version, carried in the hello record. v2 split the
// handshake into hello/ready around the golden-state exchange; the framing
// has its own version token (support::kWireMagic).
inline constexpr std::uint64_t kSessionProtocolVersion = 2;

// One decoded protocol record. Which fields are meaningful depends on type.
struct SessionMessage {
  enum class Type : std::uint8_t {
    kHello,
    kGoldenOffer,
    kGoldenAck,
    kReady,
    kAssign,
    kDone,
    kError,
    kShutdown,
  };

  Type type = Type::kShutdown;
  // hello
  std::uint64_t protocol = 0;
  std::string sweep;          // hello / ready
  std::string golden_key;     // hello; "" when the sweep ships no golden state
  // golden_offer
  std::string offer_key;      // "" = nothing to ship
  std::uint64_t golden_bytes = 0;
  std::uint64_t golden_chunks = 0;
  // golden_ack
  bool accept = false;
  // ready
  exp::SweepParams params;
  std::uint64_t cells = 0;
  std::string golden_source;  // "shipped" / "cached" / "derived" / ""
  // assign / done / error
  exp::Shard shard;
  std::string artifact_path;  // assign / done
  bool force = false;         // assign
  bool reused = false;        // done
  std::uint64_t wall_ms = 0;  // done: worker-measured shard wall clock
  std::string message;        // error
  // done: the worker's obs counter increments for this assignment, sorted by
  // name. Additive v2 field — absent in records from older peers (decoded as
  // empty) and ignored by older decoders.
  std::vector<std::pair<std::string, std::uint64_t>> metrics;
};

// Record encoders (payloads; wrap with support::wire_frame to transmit).
std::string encode_hello(const std::string& sweep, const std::string& golden_key);
std::string encode_golden_offer(const std::string& key, std::uint64_t bytes,
                                std::uint64_t chunks);
std::string encode_golden_ack(bool accept);
std::string encode_ready(const exp::SweepSpec& spec, const std::string& golden_source);
std::string encode_assign(const exp::Shard& shard, const std::string& out, bool force);
std::string encode_done(const exp::Shard& shard, const std::string& out, bool reused,
                        std::uint64_t wall_ms,
                        const std::vector<std::pair<std::string, std::uint64_t>>& metrics = {});
std::string encode_session_error(const exp::Shard& shard, const std::string& message);
std::string encode_shutdown();

// Parses and structurally validates one record payload (known type, required
// fields, shard bounds). Throws CicError describing the violation.
SessionMessage decode_session_message(std::string_view payload);

// Empty when `hello` comes from a protocol-compatible worker for the same
// sweep; otherwise the reason the handshake must be rejected. Deliberately
// does NOT compare golden keys — key skew downgrades shipping, it does not
// reject the worker.
std::string hello_mismatch(const SessionMessage& hello, const exp::SweepSpec& spec);

// Empty when `ready` reports exactly `spec`'s derived identity (name, cell
// count, every parameter); otherwise the rejection reason. The v1 hello
// check, moved to where the data now exists.
std::string ready_mismatch(const SessionMessage& ready, const exp::SweepSpec& spec);

// Golden-state shipment, prepared once per dispatch and offered to every
// session: the canonical key, the blob size, and the chunk sequence
// pre-wrapped as wire frames (support::chunk_payloads over the encoded
// cicmon-golden-v1 blob).
struct GoldenShipment {
  std::string key;
  std::uint64_t bytes = 0;
  std::vector<std::string> frames;
  bool empty() const { return key.empty() || frames.empty(); }
};
GoldenShipment make_golden_shipment(std::string key, std::string_view blob);

// --- worker side ---------------------------------------------------------

// What `cicmon worker` serves. The sweep's *identity* is known before any
// derivation (the light hello); the full SweepSpec is derived only after the
// golden exchange, so an accepted shipment can spare the derivation cost.
struct WorkerSweepSource {
  std::string sweep;       // sweep name, sent in the hello
  std::string golden_key;  // canonical golden key; "" = nothing to accept
  // Derives the full spec. `shipped` is a checksum-valid golden blob when
  // one was accepted over the wire, null otherwise; implementations fall
  // back to local derivation when the blob fails to decode or import. On
  // return, `golden_source` (when non-null) is set to how golden state was
  // obtained: "shipped", "cached", "derived", or "" for sweeps without one.
  std::function<exp::SweepSpec(const std::string* shipped, std::string* golden_source)>
      derive;
};

// Serves shard assignments over this process's stdin/stdout until a shutdown
// record or EOF; returns the process exit code. stdout belongs to the
// protocol — diagnostics go to stderr. A CicError while running a shard is
// reported as an error record and the session keeps serving (the
// orchestrator owns the retry policy); a malformed inbound frame is fatal,
// mirroring the orchestrator's own trust rules. A corrupt golden shipment is
// the one exception: it is reported on stderr and downgraded to local
// derivation, because the artifact checks — not the shipment — protect the
// results.
//
// Fault-injection hooks for tests and CI (all keyed on
// CICMON_WORKER_FLAKY_MARKER=DIR, with O_EXCL markers so only the first
// worker to arrive sabotages and every retry behaves):
//  * CICMON_WORKER_FLAKY=I/N — the first assignment of shard I/N writes a
//    deliberately truncated done record and raises SIGKILL: a worker dying
//    mid-record, made deterministic.
//  * CICMON_WORKER_FLAKY_GOLDEN=1 — the first worker to receive a golden
//    chunk raises SIGKILL mid-stream (marker DIR/golden): the
//    died-mid-golden-chunk teardown path, made deterministic.
int serve_worker(const WorkerSweepSource& source, unsigned jobs);

// --- orchestrator side -----------------------------------------------------

// One persistent worker process plus its protocol state, driven by the
// orchestrator's single-threaded poll loop. The session never decides retry
// policy: it reports events and hands back the in-flight item; the caller
// re-enqueues through the work queue's budget.
class WorkerSession {
 public:
  using Clock = std::chrono::steady_clock;

  enum class State : std::uint8_t {
    kHandshaking,  // spawned, waiting for a valid hello
    kShipping,     // golden offer sent, waiting for the accept/decline ack
    kDeriving,     // chunks done (or declined), waiting for the ready record
    kIdle,         // handshake done, no assignment outstanding
    kBusy,         // an assignment is in flight
    kDead,         // torn down; take_item() recovers any in-flight work
  };

  struct Event {
    enum class Kind : std::uint8_t {
      kNone,    // nothing new
      kReady,   // handshake completed; the session can take assignments
      kDone,    // the in-flight assignment acked an artifact (validate it!)
      kError,   // the worker reported a shard failure; session stays usable
      kFailed,  // the session died: reason set, in-flight item recoverable
    };
    Kind kind = Kind::kNone;
    bool reused = false;        // kDone: the worker resumed an existing artifact
    std::uint64_t wall_ms = 0;  // kDone: worker-measured shard wall clock
    std::string golden;         // kReady: how the worker obtained golden state
    std::string reason;         // kError / kFailed
    // kDone: the worker's per-assignment counter deltas (empty from old
    // peers); the orchestrator folds them into its fleet.* totals.
    std::vector<std::pair<std::string, std::uint64_t>> metrics;
  };

  // Adopts a worker spawned with piped stdin/stdout (Transport::launch).
  // `golden` may be null or empty; when it matches the worker's hello key
  // the shipment is offered and its frames streamed.
  // `deadline` bounds the whole handshake, hello through ready — the
  // derivation a declining worker performs is the expensive half, so the
  // caller passes its per-item timeout. `grace_seconds` is the
  // SIGTERM-to-SIGKILL window every teardown uses.
  WorkerSession(support::ChildProcess child, const GoldenShipment* golden,
                Clock::time_point deadline, double grace_seconds);

  State state() const { return state_; }
  // True until the ready record lands — the phase whose failures the
  // orchestrator's handshake budget (not the per-item budget) bounds.
  bool pre_ready() const {
    return state_ == State::kHandshaking || state_ == State::kShipping ||
           state_ == State::kDeriving;
  }
  bool has_item() const { return has_item_; }
  const WorkItem& item() const { return item_; }
  // Recovers the in-flight item after kFailed/kDone/kError. Clears it.
  WorkItem take_item();

  // Sends an assignment (kIdle -> kBusy) with a completion deadline. The
  // item is consumed (moved from) only on success; on a failed pipe write
  // the session is dead, `item` is left intact, and the caller re-enqueues
  // it.
  bool assign(WorkItem& item, bool force, Clock::time_point deadline);

  // Drains the worker's stdout, advances the protocol, enforces deadlines.
  // At most one meaningful event is returned per call; call repeatedly from
  // the poll loop. `spec` is what ready records are validated against.
  Event pump(const exp::SweepSpec& spec, Clock::time_point now);

  // Polite shutdown of a live session: shutdown record + stdin EOF, then
  // SIGTERM-with-grace teardown. Safe in any state; reaps the process.
  void shutdown(double grace_seconds);

 private:
  Event fail(std::string reason);

  support::ChildProcess child_;
  support::FrameReader reader_;
  const GoldenShipment* golden_ = nullptr;  // not owned; outlives the session
  bool offered_ = false;                    // a non-empty offer went out
  State state_ = State::kHandshaking;
  WorkItem item_;
  bool has_item_ = false;
  Clock::time_point deadline_;
  double grace_seconds_ = 0.0;
};

}  // namespace cicmon::dist
