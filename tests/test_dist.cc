// Tests for the distributed campaign orchestrator: work-queue retry budgets,
// the subprocess helper, the transport's template handling, and — through
// real worker subprocesses — every failure path of the session fleet.
//
// Sessions (the real `cicmon worker` binary over pipes, plus sh saboteurs
// speaking just enough of the wire protocol to misbehave): the v2 handshake
// rejects protocol/spec skew but only *downgrades* on golden-key skew, and
// every adversarial input — truncated frame, checksum mismatch, garbage
// line, oversized record, worker SIGKILLed mid-record or mid-golden-chunk,
// a hung assignment, an acked-but-invalid artifact — tears the session down
// or fails the attempt, retries the shard on a fresh session, and still
// merges to exactly the direct run's cells. An exhausted retry budget fails
// only its own shard and leaves the peers resumable, and campaign workers
// derive the golden state themselves when nothing is shipped. The Cli.*
// tests run the real `cicmon dispatch` binary end to end and byte-diff its
// stdout against the direct run with golden shipping on, cached, and
// sabotaged. (CI repeats that over a multi-host-style template transport.)
// They also pin the CLI's flag table: the strict value grammar, every flag
// the help screen prints, did-you-mean suggestions, the flags dispatch
// forwards, and the golden-cache key names.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/orchestrator.h"
#include "dist/session.h"
#include "dist/transport.h"
#include "dist/work_queue.h"
#include "exp/sweep.h"
#include "fault/campaign.h"
#include "obs/trace.h"
#include "sim/experiment.h"
#include "support/error.h"
#include "support/subprocess.h"
#include "support/wire.h"
#include "workloads/workloads.h"

#ifndef CICMON_CLI_PATH
#define CICMON_CLI_PATH "./cicmon"  // CMake injects the real binary location
#endif

namespace cicmon::dist {
namespace {

// Same cheap deterministic grid as test_exp.cc.
exp::SweepSpec synthetic_sweep(std::size_t cells) {
  exp::SweepSpec spec;
  spec.sweep = "synthetic";
  spec.params = {{"cells", std::to_string(cells)}};
  spec.cells = cells;
  spec.cell_key = [](std::size_t cell) { return "cell/" + std::to_string(cell); };
  spec.run_cell = [](std::size_t cell) {
    exp::CellResult result;
    result.u64 = {cell, cell * cell};
    result.f64 = {1.0 / static_cast<double>(cell + 1)};
    return result;
  };
  return spec;
}

// A fresh per-test directory (markers and artifacts from a previous run of
// the same test must not leak into this one).
std::string make_test_dir(const char* tag) {
  const std::string dir = testing::TempDir() + "cicmon_dist_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out << content;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

DispatchConfig test_config(const std::string& dir, unsigned workers, unsigned shards,
                           unsigned retries = 2) {
  DispatchConfig config;
  config.workers = workers;
  config.shards = shards;
  config.retries = retries;
  config.jobs_per_worker = 1;
  config.timeout_seconds = 60;
  config.artifact_dir = dir + "/artifacts";
  config.progress = false;
  return config;
}

// --- work queue ----------------------------------------------------------

TEST(WorkQueue, PullRetryAndBudgetExhaustion) {
  WorkQueue queue(/*max_attempts=*/2);
  queue.push(WorkItem{exp::Shard{1, 2}, "a.json", 0});
  queue.push(WorkItem{exp::Shard{2, 2}, "b.json", 0});
  EXPECT_EQ(queue.total(), 2U);

  WorkItem item;
  ASSERT_TRUE(queue.try_pop(&item));
  EXPECT_EQ(item.shard.index, 1U);
  EXPECT_EQ(item.attempts, 1U);  // popping counts the attempt

  // First failure re-enqueues at the back; budget remains.
  EXPECT_TRUE(queue.retry(item, "worker died"));
  EXPECT_TRUE(queue.failures().empty());

  // The other item flows first (re-enqueue must not starve the queue).
  ASSERT_TRUE(queue.try_pop(&item));
  EXPECT_EQ(item.shard.index, 2U);
  queue.complete(item);
  EXPECT_EQ(queue.done(), 1U);

  // Second pop of the retried item spends the last attempt.
  ASSERT_TRUE(queue.try_pop(&item));
  EXPECT_EQ(item.shard.index, 1U);
  EXPECT_EQ(item.attempts, 2U);
  EXPECT_FALSE(queue.retry(item, "worker died again"));
  ASSERT_EQ(queue.failures().size(), 1U);
  EXPECT_EQ(queue.failures()[0].reason, "worker died again");
  EXPECT_EQ(queue.failures()[0].item.attempts, 2U);
  EXPECT_FALSE(queue.try_pop(&item));
}

// --- subprocess helper ---------------------------------------------------

TEST(Subprocess, SpawnReapAndDescribeExitStatuses) {
  int status = 0;
  EXPECT_EQ(support::spawn_process_piped({"/bin/sh", "-c", "exit 0"}).wait() >> 8, 0);

  status = support::spawn_process_piped({"/bin/sh", "-c", "exit 3"}).wait();
  EXPECT_FALSE(support::exit_ok(status));
  EXPECT_EQ(support::describe_exit(status), "exit code 3");

  // A command that cannot exec comes back as the shell's 127 convention.
  status = support::spawn_process_piped({"/nonexistent/definitely-not-a-binary"}).wait();
  EXPECT_EQ(support::describe_exit(status), "exit code 127");

  // kill_hard produces a signal status; poll() eventually reaps it.
  support::ChildProcess child =
      support::spawn_process_piped({"/bin/sh", "-c", "exec sleep 30"});
  child.kill_hard();
  status = child.wait();
  EXPECT_FALSE(support::exit_ok(status));
  EXPECT_TRUE(support::describe_exit(status).starts_with("signal 9"));

  EXPECT_THROW(support::spawn_process_piped({}), support::CicError);
}

TEST(Subprocess, ShellQuoting) {
  EXPECT_EQ(support::shell_quote("plain-word_1.2/x"), "plain-word_1.2/x");
  EXPECT_EQ(support::shell_quote("two words"), "'two words'");
  EXPECT_EQ(support::shell_quote(""), "''");
  EXPECT_EQ(support::shell_quote("it's"), "'it'\\''s'");
  EXPECT_EQ(support::shell_join({"a", "b c", "$d"}), "a 'b c' '$d'");
}

// --- transports ----------------------------------------------------------

// Launches `argv` through `transport` and returns everything it printed.
std::string launch_and_read(const Transport& transport, const std::vector<std::string>& argv) {
  support::ChildProcess child = transport.launch(argv);
  child.close_stdin();
  std::string out;
  while (support::read_available(child.stdout_fd(), &out)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(support::exit_ok(child.wait()));
  return out;
}

TEST(Transport, TemplateExpansionAndValidation) {
  const std::vector<std::string> argv = {"printf", "%s|", "a", "b c"};
  EXPECT_EQ(launch_and_read(Transport(), argv), "a|b c|");
  EXPECT_EQ(Transport().describe(), "local");
  // Every {cmd} becomes the shell-quoted worker command; unknown
  // placeholders and stray braces pass through untouched.
  const Transport wrapped("echo {what} { && {cmd} && {cmd}");
  EXPECT_EQ(launch_and_read(wrapped, argv), "{what} {\na|b c|a|b c|");
  EXPECT_EQ(wrapped.describe(), "template 'echo {what} { && {cmd} && {cmd}'");
  EXPECT_THROW(Transport("ssh host run-it"), support::CicError);
  // Per-shard placeholders are rejected with a pointer to the manual
  // --shard/--out + merge route.
  for (const char* retired : {"run {shard} {cmd}", "{cmd} --out {out}"}) {
    try {
      const Transport transport(retired);
      ADD_FAILURE() << "accepted " << retired;
    } catch (const support::CicError& error) {
      EXPECT_NE(std::string(error.what()).find("--shard I/N --out"), std::string::npos)
          << error.what();
      EXPECT_NE(std::string(error.what()).find("cicmon merge"), std::string::npos);
    }
  }
}

// --- persistent worker sessions -----------------------------------------

TEST(Session, MessagesRoundTripThroughEncodeDecode) {
  exp::SweepSpec spec;
  spec.sweep = "table1";
  spec.params = {{"scale", "0.5"}, {"seed", "7"}};
  spec.cells = 27;
  const SessionMessage hello =
      decode_session_message(encode_hello("table1", "00deadbeef00face"));
  EXPECT_EQ(hello.type, SessionMessage::Type::kHello);
  EXPECT_EQ(hello.protocol, kSessionProtocolVersion);
  EXPECT_EQ(hello.sweep, "table1");
  EXPECT_EQ(hello.golden_key, "00deadbeef00face");
  EXPECT_TRUE(hello_mismatch(hello, spec).empty());

  const SessionMessage offer =
      decode_session_message(encode_golden_offer("00deadbeef00face", 3'000'000, 3));
  EXPECT_EQ(offer.type, SessionMessage::Type::kGoldenOffer);
  EXPECT_EQ(offer.offer_key, "00deadbeef00face");
  EXPECT_EQ(offer.golden_bytes, 3'000'000U);
  EXPECT_EQ(offer.golden_chunks, 3U);
  // The empty offer ("nothing to ship") is a valid record too.
  EXPECT_EQ(decode_session_message(encode_golden_offer("", 0, 0)).golden_chunks, 0U);

  const SessionMessage ack = decode_session_message(encode_golden_ack(true));
  EXPECT_EQ(ack.type, SessionMessage::Type::kGoldenAck);
  EXPECT_TRUE(ack.accept);

  const SessionMessage ready = decode_session_message(encode_ready(spec, "shipped"));
  EXPECT_EQ(ready.type, SessionMessage::Type::kReady);
  EXPECT_EQ(ready.sweep, "table1");
  EXPECT_EQ(ready.cells, 27U);
  EXPECT_EQ(ready.params, spec.params);
  EXPECT_EQ(ready.golden_source, "shipped");
  EXPECT_TRUE(ready_mismatch(ready, spec).empty());

  const SessionMessage assign =
      decode_session_message(encode_assign(exp::Shard{2, 5}, "out dir/a.json", true));
  EXPECT_EQ(assign.type, SessionMessage::Type::kAssign);
  EXPECT_EQ(assign.shard.index, 2U);
  EXPECT_EQ(assign.shard.count, 5U);
  EXPECT_EQ(assign.artifact_path, "out dir/a.json");
  EXPECT_TRUE(assign.force);

  const SessionMessage done =
      decode_session_message(encode_done(exp::Shard{5, 5}, "a.json", true, 321));
  EXPECT_EQ(done.type, SessionMessage::Type::kDone);
  EXPECT_TRUE(done.reused);
  EXPECT_EQ(done.wall_ms, 321U);
  EXPECT_TRUE(done.metrics.empty());  // no metrics argument -> field elided

  // The additive metrics field round-trips name/value pairs exactly.
  const SessionMessage done_metrics = decode_session_message(encode_done(
      exp::Shard{1, 3}, "b.json", false, 12,
      {{"engine.runs", 7}, {"campaign.trials", 250}}));
  EXPECT_EQ(done_metrics.type, SessionMessage::Type::kDone);
  ASSERT_EQ(done_metrics.metrics.size(), 2U);
  EXPECT_EQ(done_metrics.metrics[0].first, "engine.runs");
  EXPECT_EQ(done_metrics.metrics[0].second, 7U);
  EXPECT_EQ(done_metrics.metrics[1].first, "campaign.trials");
  EXPECT_EQ(done_metrics.metrics[1].second, 250U);

  // A done record from a pre-telemetry peer (no metrics key) still decodes.
  const SessionMessage old_done = decode_session_message(
      "{\"type\": \"done\", \"shard\": 1, \"shard_count\": 2, "
      "\"out\": \"x\", \"reused\": false, \"wall_ms\": 5}");
  EXPECT_EQ(old_done.type, SessionMessage::Type::kDone);
  EXPECT_TRUE(old_done.metrics.empty());

  const SessionMessage error =
      decode_session_message(encode_session_error(exp::Shard{1, 2}, "disk full"));
  EXPECT_EQ(error.type, SessionMessage::Type::kError);
  EXPECT_EQ(error.message, "disk full");

  EXPECT_EQ(decode_session_message(encode_shutdown()).type, SessionMessage::Type::kShutdown);

  EXPECT_THROW(decode_session_message("not json"), support::CicError);
  EXPECT_THROW(decode_session_message("{\"type\": \"launch-missiles\"}"), support::CicError);
  // Out-of-range shard coordinates are a structural violation.
  EXPECT_THROW(decode_session_message(
                   "{\"type\": \"done\", \"shard\": 9, \"shard_count\": 5, "
                   "\"out\": \"x\", \"reused\": false, \"wall_ms\": 0}"),
               support::CicError);
  // A golden offer whose key and chunk count disagree is structurally bogus:
  // "something to ship" needs both, "nothing" needs neither.
  EXPECT_THROW(decode_session_message(
                   "{\"type\": \"golden_offer\", \"key\": \"\", \"bytes\": 0, "
                   "\"chunks\": 3}"),
               support::CicError);
  EXPECT_THROW(decode_session_message(
                   "{\"type\": \"golden_offer\", \"key\": \"00deadbeef00face\", "
                   "\"bytes\": 9, \"chunks\": 0}"),
               support::CicError);
}

TEST(Session, HelloMismatchCatchesProtocolAndSweepButNotGoldenKeySkew) {
  exp::SweepSpec spec;
  spec.sweep = "fig6";
  spec.params = {{"scale", "1"}};
  spec.cells = 9;
  SessionMessage hello = decode_session_message(encode_hello("fig6", "1111111111111111"));
  EXPECT_TRUE(hello_mismatch(hello, spec).empty());
  SessionMessage skew = hello;
  skew.protocol = 99;
  EXPECT_NE(hello_mismatch(skew, spec).find("protocol"), std::string::npos);
  skew = hello;
  skew.sweep = "table1";
  EXPECT_FALSE(hello_mismatch(skew, spec).empty());
  // Golden-key skew downgrades shipping; it must never reject the worker.
  skew = hello;
  skew.golden_key = "2222222222222222";
  EXPECT_TRUE(hello_mismatch(skew, spec).empty());
}

TEST(Session, ReadyMismatchCatchesSweepCellsAndParams) {
  exp::SweepSpec spec;
  spec.sweep = "fig6";
  spec.params = {{"scale", "1"}};
  spec.cells = 9;
  SessionMessage ready = decode_session_message(encode_ready(spec, "derived"));
  EXPECT_TRUE(ready_mismatch(ready, spec).empty());
  SessionMessage skew = ready;
  skew.sweep = "table1";
  EXPECT_FALSE(ready_mismatch(skew, spec).empty());
  skew = ready;
  skew.cells = 10;
  EXPECT_FALSE(ready_mismatch(skew, spec).empty());
  skew = ready;
  skew.params = {{"scale", "2"}};
  EXPECT_FALSE(ready_mismatch(skew, spec).empty());
}

// The persistent-session integration tests run the REAL `cicmon worker`
// binary against a real (tiny) table1 sweep — the parent derives the same
// spec the worker will, exactly as `cicmon dispatch` does.
constexpr double kSessionScale = 0.02;

exp::SweepSpec session_sweep() { return sim::table1_sweep(kSessionScale); }

const std::vector<exp::CellResult>& session_direct_cells() {
  static const std::vector<exp::CellResult> cells = exp::run_all(session_sweep(), 1);
  return cells;
}

WorkerCommand cli_worker_command() {
  return {{CICMON_CLI_PATH, "worker", "table1", "--scale", exp::fmt_f64(kSessionScale)}};
}

TEST(Sessions, ServeManyShardsPerProcessAndMergeToTheDirectRun) {
  const std::string dir = make_test_dir("sessions_happy");
  const Transport transport;
  const DispatchResult result =
      dispatch_sweep(session_sweep(), cli_worker_command(), transport, test_config(dir, 2, 5));
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.shard_count, 5U);
  EXPECT_EQ(result.launched, 2U);  // 2 sessions served 5 shards — the whole point
  EXPECT_EQ(result.retried, 0U);
  EXPECT_EQ(result.cells, session_direct_cells());

  // A re-dispatch resumes every artifact without a single session spawn.
  const DispatchResult again =
      dispatch_sweep(session_sweep(), cli_worker_command(), transport, test_config(dir, 2, 5));
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.reused, 5U);
  EXPECT_EQ(again.launched, 0U);
  EXPECT_EQ(again.cells, session_direct_cells());
}

TEST(Sessions, FlakyEnvHookKillsWorkerMidRecordAndTheShardIsRetried) {
  const std::string dir = make_test_dir("sessions_flaky");
  // The worker-side deterministic death hook: first worker to serve shard
  // 2/4 writes half a done record and SIGKILLs itself.
  ASSERT_EQ(setenv("CICMON_WORKER_FLAKY", "2/4", 1), 0);
  ASSERT_EQ(setenv("CICMON_WORKER_FLAKY_MARKER", (dir + "/markers").c_str(), 1), 0);
  const Transport transport;
  const DispatchResult result =
      dispatch_sweep(session_sweep(), cli_worker_command(), transport, test_config(dir, 1, 4));
  unsetenv("CICMON_WORKER_FLAKY");
  unsetenv("CICMON_WORKER_FLAKY_MARKER");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.retried, 1U);
  EXPECT_EQ(result.launched, 2U);  // the killed session + its replacement
  EXPECT_EQ(result.cells, session_direct_cells());
  EXPECT_TRUE(std::filesystem::exists(dir + "/markers/2of4"));
}

// The script lines that consume one record shaped like `frame` from stdin:
// a record's JSON payload spans several lines, and a script that reads
// fewer would take the rest of it for the next record.
std::string read_record_like(const std::string& frame) {
  std::string lines;
  for (const char c : frame) {
    if (c == '\n') lines += "read -r line\n";
  }
  return lines;
}

// The worker half of a v2 handshake, as precomputed frames plus the script
// lines that replay it: hello out, consume the (empty) golden offer, decline
// it, report ready — enough for a /bin/sh "worker" to reach the assignment
// loop exactly as the real binary does.
std::string scripted_handshake(const std::string& dir, const exp::SweepSpec& spec) {
  write_file(dir + "/hello.bin", support::wire_frame(encode_hello(spec.sweep, "")));
  write_file(dir + "/ack.bin", support::wire_frame(encode_golden_ack(false)));
  write_file(dir + "/ready.bin", support::wire_frame(encode_ready(spec, "derived")));
  return "cat \"" + dir + "/hello.bin\"\n" +
         read_record_like(support::wire_frame(encode_golden_offer("", 0, 0))) +
         "cat \"" + dir + "/ack.bin\"\n"
         "cat \"" + dir + "/ready.bin\"\n";
}

// Consumes one whole assignment record; the artifact path is a single line,
// so every assignment spans the same number of lines.
std::string read_assignment() {
  return read_record_like(support::wire_frame(encode_assign(exp::Shard{1, 1}, "a", false)));
}

TEST(Sessions, IdleSessionIsNotKilledByItsCompletedAssignmentsDeadline) {
  // Regression: completing an assignment must clear its deadline. A session
  // idling after a fast shard (while a peer grinds the long-tail one) must
  // not be torn down as "timed out" when the finished assignment's deadline
  // passes.
  const std::string dir = make_test_dir("sessions_idle");
  const exp::SweepSpec spec = session_sweep();
  const std::string artifact = dir + "/a.json";
  write_file(dir + "/done.bin",
             support::wire_frame(encode_done(exp::Shard{1, 2}, artifact, false, 3)));
  const std::string path = dir + "/idle.sh";
  write_file(path, scripted_handshake(dir, spec) + read_assignment() + "cat \"" + dir +
                       "/done.bin\"\nexec sleep 30\n");
  using Clock = WorkerSession::Clock;
  WorkerSession session(support::spawn_process_piped({"/bin/sh", path}), nullptr,
                        Clock::now() + std::chrono::seconds(10),
                        /*grace_seconds=*/0.1);
  auto pump_until = [&](WorkerSession::Event::Kind kind) {
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < give_up) {
      const WorkerSession::Event event = session.pump(spec, Clock::now());
      if (event.kind == kind) return true;
      if (event.kind == WorkerSession::Event::Kind::kFailed) {
        ADD_FAILURE() << "session failed: " << event.reason;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  };
  ASSERT_TRUE(pump_until(WorkerSession::Event::Kind::kReady));
  // A tight 100ms assignment deadline, acked almost instantly...
  WorkItem item{exp::Shard{1, 2}, artifact, 1};
  ASSERT_TRUE(session.assign(item, false, Clock::now() + std::chrono::milliseconds(100)));
  ASSERT_TRUE(pump_until(WorkerSession::Event::Kind::kDone));
  (void)session.take_item();
  EXPECT_EQ(session.state(), WorkerSession::State::kIdle);
  // ...then idle well past it: the session must stay alive and idle.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const WorkerSession::Event event = session.pump(spec, Clock::now());
  EXPECT_EQ(event.kind, WorkerSession::Event::Kind::kNone) << event.reason;
  EXPECT_EQ(session.state(), WorkerSession::State::kIdle);
  session.shutdown(0.1);
}

TEST(Sessions, FailedAssignWriteLeavesTheItemWithTheCaller) {
  // Regression: assign() must not consume the item when the pipe write
  // fails — the caller re-enqueues it, artifact path and all.
  const std::string dir = make_test_dir("sessions_deadpipe");
  const std::string path = dir + "/hello-then-die.sh";
  write_file(path, scripted_handshake(dir, session_sweep()) + "exit 0\n");
  using Clock = WorkerSession::Clock;
  WorkerSession session(support::spawn_process_piped({"/bin/sh", path}), nullptr,
                        Clock::now() + std::chrono::seconds(10),
                        /*grace_seconds=*/0.1);
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
  while (session.state() != WorkerSession::State::kIdle && Clock::now() < give_up) {
    session.pump(session_sweep(), Clock::now());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(session.state(), WorkerSession::State::kIdle);
  // The worker is gone by now; give the kernel a beat to notice the reader
  // side is closed so the write fails with EPIPE.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::string artifact = dir + "/artifacts/table1-1of2-with-a-long-path.shard.json";
  WorkItem item{exp::Shard{1, 2}, artifact, 1};
  EXPECT_FALSE(session.assign(item, false, Clock::now() + std::chrono::seconds(10)));
  EXPECT_EQ(session.state(), WorkerSession::State::kDead);
  EXPECT_EQ(item.artifact_path, artifact);  // intact for the re-enqueue
  EXPECT_EQ(item.shard.index, 1U);
}

// A saboteur session: speaks a valid v2 handshake (precomputed by the test,
// declining the golden offer), reads its first assignment, emits
// `sabotage` as the response, and exits. Every later launch (the mkdir is
// atomic, so exactly one saboteur fires) execs the real worker binary, which
// serves the retried shard properly.
WorkerCommand saboteur_command(const std::string& dir, const std::string& sabotage) {
  const exp::SweepSpec spec = session_sweep();
  const std::string handshake = scripted_handshake(dir, spec);
  const std::string path = dir + "/session.sh";
  write_file(path,
             "if mkdir \"" + dir + "/sabotaged\" 2> /dev/null; then\n" +
                 handshake + read_assignment() +  // sync: an assignment is in flight
                 sabotage + "\n"
             "  exit 0\n"
             "fi\n"
             "exec " + std::string(CICMON_CLI_PATH) + " worker table1 --scale " +
                 exp::fmt_f64(kSessionScale) + " --jobs 1\n");
  return {{"/bin/sh", path}};
}

// Shared body for the adversarial-wire-input tests: one worker slot, three
// shards, the first session responds to its first assignment with `sabotage`
// — the orchestrator must tear the session down, re-enqueue the shard, and
// the respawned (honest) session must still produce the direct run's cells.
void expect_sabotage_recovered(const char* tag, const std::string& sabotage_template) {
  const std::string dir = make_test_dir(tag);
  std::string sabotage = sabotage_template;
  // Materials the saboteur can reference via %DIR%: done.bin is a valid,
  // complete done-record frame; bad.bin is the same frame with one payload
  // bit flipped (framing intact, checksum wrong).
  const std::string done_frame =
      support::wire_frame(encode_done(exp::Shard{1, 3}, "ignored.json", false, 2));
  std::ofstream done(dir + "/done.bin", std::ios::binary);
  done << done_frame;
  done.close();
  std::string corrupt = done_frame;
  corrupt[corrupt.size() - 4] ^= 0x01;  // payload bit flip: checksum mismatch
  std::ofstream bad(dir + "/bad.bin", std::ios::binary);
  bad << corrupt;
  bad.close();
  for (std::string::size_type pos; (pos = sabotage.find("%DIR%")) != std::string::npos;) {
    sabotage.replace(pos, 5, dir);
  }

  const Transport transport;
  const DispatchResult result = dispatch_sweep(session_sweep(), saboteur_command(dir, sabotage),
                                               transport, test_config(dir, 1, 3));
  ASSERT_TRUE(result.ok) << tag << ": " << (result.failures.empty()
                                                ? "?"
                                                : result.failures.front().reason);
  EXPECT_GE(result.retried, 1U) << tag;
  EXPECT_EQ(result.cells, session_direct_cells()) << tag;
  EXPECT_TRUE(std::filesystem::exists(dir + "/sabotaged")) << tag;
}

TEST(Sessions, TruncatedFrameTearsDownSessionAndShardIsRetried) {
  // Half a done record, then EOF — the mid-record truncation signature.
  expect_sabotage_recovered("wire_truncated", "head -c 20 \"%DIR%/done.bin\"");
}

TEST(Sessions, ChecksumMismatchTearsDownSessionAndShardIsRetried) {
  expect_sabotage_recovered("wire_checksum", "cat \"%DIR%/bad.bin\"");
}

TEST(Sessions, GarbageLineTearsDownSessionAndShardIsRetried) {
  expect_sabotage_recovered("wire_garbage", "echo 'stray printf all over the protocol stream'");
}

TEST(Sessions, OversizedRecordTearsDownSessionAndShardIsRetried) {
  // A header promising a 99 MB record: rejected on sight, not buffered.
  expect_sabotage_recovered("wire_oversized",
                            "printf 'cicmon-wire-1 99999999 0123456789abcdef\\n'");
}

TEST(Sessions, WorkerSigkilledMidRecordIsRetried) {
  expect_sabotage_recovered("wire_sigkill",
                            "head -c 20 \"%DIR%/done.bin\"\nkill -9 $$");
}

TEST(Sessions, ProtocolVersionSkewIsASetupErrorNotARetryLoop) {
  const std::string dir = make_test_dir("sessions_protocol");
  const exp::SweepSpec spec = session_sweep();
  // A "worker" from the future: hello with protocol 99, every launch.
  std::string hello = encode_hello(spec.sweep, "");
  const std::string::size_type pos = hello.find("\"protocol\": 2");
  ASSERT_NE(pos, std::string::npos);
  hello.replace(pos, 13, "\"protocol\": 99");
  std::ofstream out(dir + "/hello.bin", std::ios::binary);
  out << support::wire_frame(hello);
  out.close();
  const std::string path = dir + "/future.sh";
  write_file(path, "cat \"" + dir + "/hello.bin\"\nread ignored\nexit 0\n");
  const WorkerCommand base{{"/bin/sh", path}};
  const Transport transport;
  // retries+1 consecutive handshake failures = the worker command is broken.
  EXPECT_THROW(dispatch_sweep(spec, base, transport, test_config(dir, 1, 3)),
               support::CicError);
}

TEST(Sessions, SpecSkewedWorkerFailsTheHandshake) {
  const std::string dir = make_test_dir("sessions_skew");
  // A real worker, wrong flags: derives table1 at another scale, so its
  // hello reports different params — caught before any shard is wasted.
  const WorkerCommand base{{CICMON_CLI_PATH, "worker", "table1", "--scale", "0.5"}};
  const Transport transport;
  EXPECT_THROW(dispatch_sweep(session_sweep(), base, transport, test_config(dir, 1, 3)),
               support::CicError);
}

TEST(Sessions, TemplateTransportCarriesSessionsWhenItForwardsStdio) {
  // The ssh-style case: the template wraps the session command once per
  // worker slot and forwards stdio, so a multi-host fleet gets persistent
  // sessions (and golden shipping).
  const std::string dir = make_test_dir("sessions_template");
  const Transport transport("echo launched >> " + dir + "/launches.txt && {cmd}");
  const DispatchResult result =
      dispatch_sweep(session_sweep(), cli_worker_command(), transport, test_config(dir, 2, 5));
  ASSERT_TRUE(result.ok) << (result.failures.empty() ? "?" : result.failures.front().reason);
  EXPECT_EQ(result.launched, 2U);  // two sessions served five shards
  EXPECT_EQ(result.cells, session_direct_cells());
  EXPECT_TRUE(std::filesystem::exists(dir + "/launches.txt"));
}

TEST(Sessions, GoldenKeySkewDowngradesShippingNotTheWorker) {
  // The orchestrator has golden state but the worker's hello reports a
  // different (here: empty — table1 ships nothing) key: the offer is
  // withheld, the worker derives locally, and the run still merges to the
  // direct cells. Skew must never look like a broken worker.
  const std::string dir = make_test_dir("sessions_keyskew");
  DispatchConfig config = test_config(dir, 2, 4);
  config.golden = std::make_shared<GoldenShipment>(
      make_golden_shipment("1234567890abcdef", "not-a-real-golden-blob"));
  const Transport transport;
  const DispatchResult result =
      dispatch_sweep(session_sweep(), cli_worker_command(), transport, config);
  ASSERT_TRUE(result.ok) << (result.failures.empty() ? "?" : result.failures.front().reason);
  EXPECT_EQ(result.golden_shipped, 0U);
  EXPECT_EQ(result.cells, session_direct_cells());
}

TEST(Sessions, HungSessionTimesOutAndTheShardIsRetried) {
  // The saboteur takes its assignment and never answers: the per-item
  // deadline tears the session down and a fresh session serves the shard.
  const std::string dir = make_test_dir("sessions_hung");
  DispatchConfig config = test_config(dir, 1, 3);
  config.timeout_seconds = 0.5;
  ASSERT_TRUE(obs::open_trace(dir + "/trace.jsonl", "test"));
  const DispatchResult result =
      dispatch_sweep(session_sweep(), saboteur_command(dir, "exec sleep 30"), Transport(), config);
  obs::close_trace();
  ASSERT_TRUE(result.ok) << (result.failures.empty() ? "?" : result.failures.front().reason);
  EXPECT_EQ(result.retried, 1U);
  EXPECT_EQ(result.cells, session_direct_cells());
  // The session.failed trace event carries the teardown reason.
  EXPECT_NE(read_file(dir + "/trace.jsonl").find("assignment timed out"), std::string::npos);
}

TEST(Sessions, InvalidArtifactWithAGoodAckIsAFailedAttempt) {
  // The saboteur writes a truncated artifact and acks it with a well-formed
  // done record: the artifact checks, not the ack, decide. It then takes a
  // second assignment and exits. With no retry budget both of its shards
  // fail; a re-dispatch serves them and merges to the direct run.
  const std::string dir = make_test_dir("sessions_bad_ack");
  const DispatchConfig config = test_config(dir, 1, 3, /*retries=*/0);
  const exp::Shard first{1, 3};
  const std::string artifact = shard_artifact_path(config.artifact_dir, "table1", first);
  write_file(dir + "/done.bin", support::wire_frame(encode_done(first, artifact, false, 2)));
  const WorkerCommand saboteur = saboteur_command(
      dir, "  printf '{\"schema\": \"cicmon-shard-v1\", \"swee' > \"" + artifact + "\"\n"
           "  cat \"" + dir + "/done.bin\"\n"
           "  read -r next_assignment");
  const DispatchResult result = dispatch_sweep(session_sweep(), saboteur, Transport(), config);
  ASSERT_FALSE(result.ok);
  ASSERT_EQ(result.failures.size(), 2U);
  EXPECT_EQ(result.failures[0].item.shard.index, 1U);
  EXPECT_NE(result.failures[0].reason.find("worker acked an invalid artifact"), std::string::npos)
      << result.failures[0].reason;
  EXPECT_EQ(result.failures[1].item.shard.index, 2U);

  const DispatchResult fixed =
      dispatch_sweep(session_sweep(), saboteur, Transport(), test_config(dir, 1, 3));
  ASSERT_TRUE(fixed.ok) << (fixed.failures.empty() ? "?" : fixed.failures.front().reason);
  EXPECT_EQ(fixed.reused, 1U);
  EXPECT_EQ(fixed.cells, session_direct_cells());
}

TEST(Sessions, ExhaustedRetryBudgetFailsOnlyThatShardAndPeersStayResumable) {
  const std::string dir = make_test_dir("sessions_exhausted");
  // The death hook kills the first worker to serve shard 2/4, and the
  // budget allows no retry.
  ASSERT_EQ(setenv("CICMON_WORKER_FLAKY", "2/4", 1), 0);
  ASSERT_EQ(setenv("CICMON_WORKER_FLAKY_MARKER", (dir + "/markers").c_str(), 1), 0);
  const DispatchResult result = dispatch_sweep(session_sweep(), cli_worker_command(),
                                               Transport(), test_config(dir, 1, 4, /*retries=*/0));
  unsetenv("CICMON_WORKER_FLAKY");
  unsetenv("CICMON_WORKER_FLAKY_MARKER");
  ASSERT_FALSE(result.ok);
  EXPECT_TRUE(result.cells.empty());
  ASSERT_EQ(result.failures.size(), 1U);
  EXPECT_EQ(result.failures[0].item.shard.index, 2U);
  EXPECT_EQ(result.failures[0].item.attempts, 1U);

  // The three completed shards left valid artifacts behind: a re-dispatch
  // reuses them and only runs the failed shard.
  const DispatchResult fixed = dispatch_sweep(session_sweep(), cli_worker_command(),
                                              Transport(), test_config(dir, 1, 4));
  ASSERT_TRUE(fixed.ok) << (fixed.failures.empty() ? "?" : fixed.failures.front().reason);
  EXPECT_EQ(fixed.reused, 3U);
  EXPECT_EQ(fixed.launched, 1U);
  EXPECT_EQ(fixed.cells, session_direct_cells());
}

TEST(Sessions, CampaignWorkersDeriveTheGoldenStateWhenNothingIsShipped) {
  // A campaign dispatched through the library with config.golden unset:
  // every session worker pays its own golden run, and the merge still
  // equals the direct cells.
  const std::string dir = make_test_dir("sessions_derive");
  cpu::CpuConfig machine;
  machine.monitoring = true;
  machine.cic.iht_entries = 16;
  const fault::CampaignRunner runner(workloads::build_workload("bitcount", {0.02, 42}), machine);
  exp::SweepSpec spec = runner.sweep(fault::FaultSite::kMemoryText, 1, 48, 9);
  // The parameters `cicmon worker campaign` records next to the runner's.
  spec.params.insert(spec.params.end(),
                     {{"workload", "bitcount"},
                      {"scale", exp::fmt_f64(0.02)},
                      {"monitor", "on"},
                      {"golden_instructions", std::to_string(runner.golden_instructions())}});
  const WorkerCommand base{{CICMON_CLI_PATH, "worker", "campaign", "--workload", "bitcount",
                            "--scale", "0.02", "--site", "memory-text", "--trials", "48",
                            "--seed", "9"}};
  const DispatchResult result = dispatch_sweep(spec, base, Transport(), test_config(dir, 2, 4));
  ASSERT_TRUE(result.ok) << (result.failures.empty() ? "?" : result.failures.front().reason);
  EXPECT_EQ(result.golden_derived, 2U);
  EXPECT_EQ(result.golden_shipped, 0U);
  EXPECT_EQ(result.cells, exp::run_all(spec, 1));
}

// --- the real CLI end to end: golden shipping on the dispatch path ---------

int run_cli(const std::string& shell_command) { return std::system(shell_command.c_str()); }

// One tiny campaign, used by every CLI-level test below.
std::string campaign_flags() {
  return " --workload bitcount --scale 0.02 --site memory-text --trials 48 --seed 9";
}

TEST(Cli, DispatchedCampaignGoldenShippingIsByteIdenticalToTheDirectRun) {
  const std::string dir = make_test_dir("cli_golden");
  const std::string cli = CICMON_CLI_PATH;
  ASSERT_TRUE(support::exit_ok(
      run_cli(cli + " campaign" + campaign_flags() + " > " + dir + "/direct.txt 2>/dev/null")));
  const std::string direct = read_file(dir + "/direct.txt");
  ASSERT_FALSE(direct.empty());

  // Shipping on (the default), with a disk cache.
  ASSERT_TRUE(support::exit_ok(run_cli(
      cli + " dispatch campaign" + campaign_flags() + " --workers 2 --shards 4 --quiet" +
      " --dir " + dir + "/a1 --golden-cache " + dir + "/cache > " + dir + "/ship.txt 2> " +
      dir + "/ship.err")));
  EXPECT_EQ(read_file(dir + "/ship.txt"), direct);
  // Both workers took the wire shipment instead of paying a golden run.
  EXPECT_NE(read_file(dir + "/ship.err").find("2 shipped"), std::string::npos)
      << read_file(dir + "/ship.err");
  // The orchestrator's derivation landed in the content-addressed cache.
  bool cached = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir + "/cache")) {
    cached |= entry.path().string().ends_with(".golden");
  }
  EXPECT_TRUE(cached);

  // A rerun against the same cache starts from the cached blob (orchestrator
  // side) and still ships — and still matches byte for byte.
  ASSERT_TRUE(support::exit_ok(run_cli(
      cli + " dispatch campaign" + campaign_flags() + " --workers 2 --shards 4 --quiet" +
      " --dir " + dir + "/a3 --golden-cache " + dir + "/cache > " + dir + "/cachehit.txt 2> " +
      dir + "/cachehit.err")));
  EXPECT_EQ(read_file(dir + "/cachehit.txt"), direct);
}

TEST(Cli, WorkerKilledMidGoldenChunkIsReplacedAndStillMergesByteIdentical) {
  const std::string dir = make_test_dir("cli_golden_kill");
  const std::string cli = CICMON_CLI_PATH;
  ASSERT_TRUE(support::exit_ok(
      run_cli(cli + " campaign" + campaign_flags() + " > " + dir + "/direct.txt 2>/dev/null")));
  // The first worker to have a golden chunk in hand SIGKILLs itself
  // mid-stream; the orchestrator must tear that session down (handshake
  // failure, not a lost shard) and the replacement worker finishes the run.
  ASSERT_TRUE(support::exit_ok(run_cli(
      "CICMON_WORKER_FLAKY_GOLDEN=1 CICMON_WORKER_FLAKY_MARKER=" + dir + "/markers " + cli +
      " dispatch campaign" + campaign_flags() + " --workers 2 --shards 4 --quiet --dir " +
      dir + "/a1 > " + dir + "/killed.txt 2> " + dir + "/killed.err")));
  EXPECT_EQ(read_file(dir + "/killed.txt"), read_file(dir + "/direct.txt"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/markers/golden"))
      << read_file(dir + "/killed.err");
}

// --- the flag table: grammar, help, suggestions, forwarding, golden key ----

// Runs `cicmon <args>` with stderr captured; returns the exit code.
int run_cli_capturing(const std::string& args, const std::string& err_path) {
  return run_cli(std::string(CICMON_CLI_PATH) + " " + args + " > /dev/null 2> " + err_path);
}

TEST(Cli, MalformedFlagValuesAreUsageErrors) {
  const std::string dir = make_test_dir("cli_grammar");
  const std::string err = dir + "/err.txt";
  // `workloads` parses the common flags and then does nothing with them, so
  // an accepted value shows up as exit 0.
  for (const char* bad : {"--scale nan", "--scale inf", "--scale 1x", "--scale 0",
                          "--seed foo", "--seed 12abc", "--checkpoint-stride -1",
                          "--jobs ''", "--timeout nan", "--trials 5x", "--shard 3/2",
                          "--shard 1/0", "--shard x", "--transport 'ssh host'",
                          "--transport 'run {shard} {cmd}'"}) {
    const int status = run_cli_capturing(std::string("workloads ") + bad, err);
    EXPECT_EQ(support::describe_exit(status), "exit code 2") << bad << ": " << read_file(err);
    EXPECT_NE(read_file(err).find("usage: cicmon"), std::string::npos) << bad;
  }
  for (const char* good : {"--scale 0.5", "--scale 1e-1", "--seed 12", "--checkpoint-stride 0",
                           "--jobs 2", "--timeout 0"}) {
    EXPECT_TRUE(support::exit_ok(run_cli_capturing(std::string("workloads ") + good, err)))
        << good << ": " << read_file(err);
  }
}

TEST(Cli, EveryFlagInTheHelpScreenIsAccepted) {
  const std::string dir = make_test_dir("cli_help");
  ASSERT_TRUE(support::exit_ok(
      run_cli(std::string(CICMON_CLI_PATH) + " help > " + dir + "/help.txt")));
  // A sample value per metavar; an enumerated metavar ("on|off") takes its
  // first alternative.
  const std::vector<std::pair<std::string, std::string>> samples = {
      {"S", "0.5"},    {"N", "1"},         {"X", "7"},        {"B", "2"},
      {"K", "1"},      {"R", "0"},         {"SEC", "5"},      {"W", "bitcount"},
      {"NAME", "fetch-bus"}, {"A,B,..", "1,8"}, {"I/N", "1/2"}, {"T", "'env {cmd}'"},
      {"FILE", dir + "/trace.jsonl"}, {"PATH", dir + "/out"}, {"DIR", dir + "/d"}};
  std::istringstream help(read_file(dir + "/help.txt"));
  std::size_t flags = 0;
  for (std::string line; std::getline(help, line);) {
    if (!line.starts_with("  --")) continue;
    // "  --flag [METAVAR]" ends at the two-space gap before the help column.
    const std::string head = line.substr(2, line.find("  ", 2) - 2);
    const std::size_t space = head.find(' ');
    const std::string flag = head.substr(0, space);
    std::string value;
    if (space != std::string::npos) {
      const std::string metavar = head.substr(space + 1);
      value = metavar.substr(0, metavar.find('|'));
      if (value == metavar) {
        const auto sample = std::find_if(samples.begin(), samples.end(),
                                         [&](const auto& s) { return s.first == metavar; });
        ASSERT_NE(sample, samples.end()) << "no sample value for " << head;
        value = sample->second;
      }
    }
    const std::string err = dir + "/err.txt";
    EXPECT_TRUE(support::exit_ok(run_cli_capturing("workloads " + flag + " " + value, err)))
        << head << " with '" << value << "': " << read_file(err);
    ++flags;
  }
  EXPECT_GE(flags, 30U);
}

TEST(Cli, MistypedFlagsGetDidYouMeanSuggestions) {
  const std::string dir = make_test_dir("cli_typo");
  const std::string err = dir + "/err.txt";
  for (const auto& [typo, flag] : std::vector<std::pair<std::string, std::string>>{
           {"--trails 5", "--trials"}, {"--chekpoints on", "--checkpoints"}}) {
    EXPECT_EQ(support::describe_exit(run_cli_capturing("campaign " + typo, err)), "exit code 2")
        << typo;
    EXPECT_NE(read_file(err).find("did you mean '" + flag + "'?"), std::string::npos)
        << typo << ": " << read_file(err);
  }
}

TEST(Cli, DispatchForwardsNonDefaultEntryAndCapacityLists) {
  const std::string dir = make_test_dir("cli_lists");
  const std::string cli = CICMON_CLI_PATH;
  for (const std::string sweep : {"fig6 --scale 0.02 --entries 1,4",
                                  "blocks --scale 0.02 --capacities 2,16"}) {
    const std::string tag = sweep.substr(0, sweep.find(' '));
    ASSERT_TRUE(support::exit_ok(
        run_cli(cli + " " + sweep + " > " + dir + "/" + tag + ".direct 2>/dev/null")));
    ASSERT_TRUE(support::exit_ok(run_cli(cli + " dispatch " + sweep +
                                         " --workers 2 --shards 3 --jobs 1 --quiet --dir " +
                                         dir + "/" + tag + " > " + dir + "/" + tag +
                                         ".dispatched 2>/dev/null")));
    const std::string direct = read_file(dir + "/" + tag + ".direct");
    EXPECT_FALSE(direct.empty());
    EXPECT_EQ(read_file(dir + "/" + tag + ".dispatched"), direct) << sweep;
  }
}

// The golden key hashes the campaign-shaping flags in flag-table order.
// Existing --golden-cache directories hold files under these names, so any
// change to a field name, value spelling or order orphans them.
TEST(Cli, GoldenCacheFileNamesArePinned) {
  const std::string dir = make_test_dir("cli_golden_key");
  const std::string cli = CICMON_CLI_PATH;
  for (const auto& [extra, name] : std::vector<std::pair<std::string, std::string>>{
           {"", "a5b74646e8b170ee.golden"},
           {" --checkpoint-stride 97 --monitor off", "b248f691aa10bac0.golden"}}) {
    const std::string cache = dir + "/cache-" + name;
    ASSERT_TRUE(support::exit_ok(run_cli(cli + " campaign" + campaign_flags() + extra +
                                         " --golden-cache " + cache + " > /dev/null 2>&1")));
    EXPECT_TRUE(std::filesystem::exists(cache + "/" + name)) << extra;
  }
}

TEST(Dispatch, PlanResolvesWorkerShardAndJobCounts) {
  const exp::SweepSpec spec = synthetic_sweep(10);
  DispatchConfig config;
  config.workers = 3;
  DispatchPlan plan = plan_dispatch(spec, config);
  EXPECT_EQ(plan.workers, 3U);
  EXPECT_EQ(plan.shards, 10U);  // 4x workers capped at the cell count
  EXPECT_GE(plan.jobs, 1U);
  config.workers = 2;
  config.jobs_per_worker = 5;
  plan = plan_dispatch(spec, config);
  EXPECT_EQ(plan.shards, 8U);
  EXPECT_EQ(plan.jobs, 5U);
  EXPECT_EQ(session_worker_argv(WorkerCommand{{"sh", "worker"}}, 3),
            (std::vector<std::string>{"sh", "worker", "--jobs", "3"}));
}

TEST(Dispatch, ShardArtifactPathNamesSweepAndCoordinates) {
  EXPECT_EQ(shard_artifact_path("runs", "campaign", exp::Shard{3, 7}),
            "runs/campaign-3of7.shard.json");
}

TEST(Dispatch, RejectsEmptySweepsAndCommands) {
  const exp::SweepSpec empty;
  const Transport transport;
  const DispatchConfig config;
  EXPECT_THROW(dispatch_sweep(empty, WorkerCommand{{"sh"}}, transport, config),
               support::CicError);
  EXPECT_THROW(dispatch_sweep(synthetic_sweep(3), WorkerCommand{}, transport, config),
               support::CicError);
}

}  // namespace
}  // namespace cicmon::dist
