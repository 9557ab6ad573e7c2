// cicbench harness: drives one in-process benchmark workload against the
// cicmon library and prints one JSON document of raw measurements on stdout.
// run.py turns the raw samples into metrics and checks the outputs.
//
//   cicbench_harness kernels       --seed N --seconds S --trace 0|1 [--spans PATH]
//   cicbench_harness campaign-bus  --seed N --seconds S --trace 0|1 [--spans PATH]
//
// Every workload is a closed loop on one thread: the next cell or trial
// starts when the previous one returns, and a pass (one complete unit of
// work, set-up included) repeats until the time is up. Each cell, trial and
// set-up is reported as the median of its fastest repetitions (Fastest).
// All timing happens here, around calls into each layer's public functions;
// nothing inside src/ is traced. With --trace 1 the passes are split into an
// untraced half and a traced half (spans kept in memory, written to --spans
// at exit) so the tracing overhead is the difference of the two halves' pass
// walls, and the layer probe replays each layer's public calls over the
// workload's programs.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "casm/image.h"
#include "cfg/fht.h"
#include "cic/iht.h"
#include "cpu/cpu.h"
#include "cpu/snapshot.h"
#include "exp/sweep.h"
#include "fault/campaign.h"
#include "fault/golden.h"
#include "fault/golden_ser.h"
#include "hash/hash_unit.h"
#include "obs/metrics.h"
#include "os/monitor_os.h"
#include "workloads/workloads.h"

namespace {

using namespace cicmon;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Spans ----------------------------------------------------------------

// In-memory span log: name, start, end, parent span, and the cell/trial id
// the span belongs to. Disabled tracers record nothing.
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  int add(const char* name, std::int64_t start, std::int64_t end, int parent,
          std::string id = {}) {
    if (!enabled_) return -1;
    spans_.push_back({name, start, end, parent, std::move(id)});
    return static_cast<int>(spans_.size()) - 1;
  }
  // Opens a span whose end is filled in later by close().
  int open(const char* name, int parent, std::string id = {}) {
    return add(name, now_ns(), 0, parent, std::move(id));
  }
  void close(int span) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].end = now_ns();
  }

  void write(const std::string& path) const {
    if (spans_.empty() || path.empty()) return;
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"span\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start
          << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent << ",\"id\":\"" << s.id
          << "\"}\n";
    }
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start;
    std::int64_t end;
    int parent;
    std::string id;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
};

// --- JSON output ------------------------------------------------------------

// Minimal writer for the flat documents this harness emits (keys and strings
// are benchmark-controlled identifiers, so no escaping is needed).
class Json {
 public:
  Json& key(const std::string& k) {
    comma();
    out_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& begin_object() { return open('{'); }
  Json& end_object() { return close('}'); }
  Json& begin_array() { return open('['); }
  Json& end_array() { return close(']'); }
  Json& value(std::int64_t v) { return scalar(std::to_string(v)); }
  Json& value(std::uint64_t v) { return scalar(std::to_string(v)); }
  Json& value(int v) { return scalar(std::to_string(v)); }
  Json& value(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return scalar(buf);
  }
  Json& value(const std::string& v) { return scalar('"' + v + '"'); }
  template <typename T>
  Json& field(const std::string& k, T v) {
    return key(k).value(v);
  }
  std::string str() const { return out_.str(); }

 private:
  void comma() {
    if (!fresh_) out_ << ',';
    fresh_ = false;
  }
  Json& open(char c) {
    comma();
    out_ << c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ << c;
    fresh_ = false;
    return *this;
  }
  Json& scalar(const std::string& text) {
    comma();
    out_ << text;
    return *this;
  }
  std::ostringstream out_;
  bool fresh_ = true;
};

// --- Machines and checks ------------------------------------------------------

// The Table 1 / Figure 6 machines: IHT entries, 0 = baseline (no monitor).
constexpr unsigned kMachines[] = {0U, 8U, 16U, 32U};

std::string machine_name(unsigned entries) {
  return entries == 0 ? "baseline" : "cic" + std::to_string(entries);
}

cpu::CpuConfig machine_config(unsigned entries) {
  cpu::CpuConfig config;
  if (entries != 0) {
    config.monitoring = true;
    config.cic.iht_entries = entries;
  }
  return config;
}

// Output checks: `failed` counts the cells or trials a failed check covers.
struct Checks {
  std::uint64_t failed = 0;
  std::vector<std::string> messages;

  void expect(bool ok, const std::string& what, std::uint64_t items = 1) {
    if (ok) return;
    failed += items;
    if (messages.size() < 20) messages.push_back(what);
  }
};

void write_result(Json& j, const cpu::RunResult& r) {
  j.begin_object()
      .field("reason", std::string(cpu::exit_reason_name(r.reason)))
      .field("instructions", r.instructions)
      .field("cycles", r.cycles)
      .field("monitor_cycles", r.monitor_cycles)
      .field("iht_lookups", r.iht.lookups)
      .field("iht_hits", r.iht.hits)
      .field("iht_misses", r.iht.misses)
      .field("iht_mismatches", r.iht.mismatches)
      .field("os_miss_exceptions", r.os.miss_exceptions)
      .field("os_mismatch_exceptions", r.os.mismatch_exceptions)
      .field("os_refills", r.os.refills)
      .field("os_records_loaded", r.os.records_loaded)
      .field("os_cycles_charged", r.os.cycles_charged)
      .end_object();
}

double peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

// One pass of a workload's closed loop. Only untraced passes after the
// warm-up are recorded into the per-item statistics.
struct Pass {
  bool traced = false;
  bool record = false;
  std::int64_t wall_ns = 0;
};

// The fastest repetitions of one item (a kernel cell, a campaign trial, a
// set-up) over a run's recorded passes. Interference from other tenants of a
// shared host only ever adds time and comes and goes in stretches of
// seconds; an item's figure is the median of its kKeep fastest repetitions,
// which a run of a few hundred passes measures the same way whatever the
// neighbours did. Memory stays flat however many passes a run makes.
class Fastest {
 public:
  void add(std::int64_t ns) {
    if (count_ < kKeep) {
      fastest_[count_++] = ns;
    } else if (ns < fastest_[kKeep - 1]) {
      fastest_[kKeep - 1] = ns;
    } else {
      return;
    }
    std::sort(fastest_.begin(), fastest_.begin() + static_cast<std::ptrdiff_t>(count_));
  }
  std::int64_t value() const {
    if (count_ == 0) return 0;
    return (fastest_[(count_ - 1) / 2] + fastest_[count_ / 2]) / 2;
  }

 private:
  static constexpr std::size_t kKeep = 8;
  std::array<std::int64_t, kKeep> fastest_{};
  std::size_t count_ = 0;
};

std::int64_t sum_values(const std::vector<Fastest>& items) {
  std::int64_t total = 0;
  for (const Fastest& f : items) total += f.value();
  return total;
}

// Quiet-host figures of a run: per-item latencies plus the pass totals built
// from them.
void write_quiet(Json& j, const std::vector<Fastest>& items, std::int64_t setup_ns,
                 std::int64_t exec_ns, std::int64_t wall_ns, std::uint64_t instructions) {
  j.key("quiet").begin_object();
  j.key("item_ns").begin_array();
  for (const Fastest& f : items) j.value(f.value());
  j.end_array();
  j.field("setup_ns", setup_ns)
      .field("exec_ns", exec_ns)
      .field("wall_ns", wall_ns)
      .field("instructions", instructions)
      .end_object();
}

void write_passes(Json& j, const std::vector<Pass>& passes) {
  j.key("passes").begin_array();
  for (const Pass& p : passes) {
    j.begin_object().field("traced", p.traced ? 1 : 0).field("wall_ns", p.wall_ns).end_object();
  }
  j.end_array();
}

// --- Layer probe --------------------------------------------------------------
//
// Replays each layer's public calls over a program's clean run, one program
// at a time on all four machines:
//   workloads::build_workload, cpu::preload_image, cfg::build_fht, the loading
//   Cpu constructor, Cpu::run, the trial constructor from a LoadedImage,
//   FetchPath::fetch and CodeIntegrityChecker::hash_step over the recorded
//   block stream, Iht::lookup with OsMonitor::handle_hash_miss on each miss,
//   and on the CIC16 campaign machine CheckpointedGolden, restore_snapshot,
//   encode_golden and decode_golden.
// Totals are summed over the programs; per-operation costs divide the summed
// time by the summed operation count.
struct Probe {
  std::map<std::string, double> ms;  // summed phase times
  std::map<unsigned, std::int64_t> run_ns, instructions;
  std::int64_t fetch_ns = 0, fetches = 0;
  std::int64_t hash_ns = 0;  // over the same words as fetch
  std::map<unsigned, std::int64_t> lookup_ns, lookups;
  std::int64_t miss_ns = 0, misses = 0;
  std::int64_t trial_construct_ns = 0, trial_constructs = 0;
  std::int64_t restore_ns = 0, restores = 0;
  std::uint64_t golden_blob_bytes = 0;
};

// Calibrated cost of one steady_clock read, subtracted from individually
// timed calls.
std::int64_t clock_cost_ns() {
  constexpr int kReads = 10000;
  const std::int64_t t0 = now_ns();
  std::int64_t last = t0;
  for (int i = 0; i < kReads; ++i) last = now_ns();
  return (last - t0) / kReads;
}

void probe_program(const std::string& name, double scale, std::uint64_t input_seed,
                   std::uint64_t campaign_seed, Probe& probe, Tracer& tracer, int parent,
                   Checks& checks) {
  const std::int64_t clock_ns = clock_cost_ns();
  const int program_span = tracer.open("probe.program", parent, name);
  auto phase = [&](const char* span_name, const std::string& id, auto&& fn) {
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    tracer.add(span_name, t0, t1, program_span, id);
    probe.ms[span_name] += static_cast<double>(t1 - t0) / 1e6;
    return t1 - t0;
  };

  for (const unsigned entries : kMachines) {
    const std::string id = name + "/" + machine_name(entries);
    const cpu::CpuConfig config = machine_config(entries);
    casm_::Image image;
    phase("workloads.build", id, [&] {
      image = workloads::build_workload(name, {scale, input_seed});
    });
    cpu::LoadedImage loaded;
    phase("cpu.preload", id, [&] { loaded = cpu::preload_image(config, image); });
    if (config.monitoring) {
      phase("cfg.build_fht", id, [&] {
        const auto unit = hash::make_hash_unit(config.cic.hash_kind, config.cic.hash_key);
        const cfg::FullHashTable fht = cfg::build_fht(image, *unit);
        checks.expect(fht.size() == loaded.fht.size(), id + ": FHT size differs from loader's");
      });
    }
    std::unique_ptr<cpu::Cpu> machine;
    phase("cpu.construct", id, [&] { machine = std::make_unique<cpu::Cpu>(config, image); });
    cpu::RunResult clean;
    const std::int64_t run_ns = phase("cpu.run", id, [&] { clean = machine->run(); });
    checks.expect(clean.reason == cpu::ExitReason::kExit, id + ": probe run did not exit");
    probe.run_ns[entries] += run_ns;
    probe.instructions[entries] += static_cast<std::int64_t>(clean.instructions);

    // Trial constructor from the shared LoadedImage, the per-trial cost.
    {
      constexpr int kConstructs = 64;
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < kConstructs; ++i) cpu::Cpu trial(config, image, &loaded);
      const std::int64_t t1 = now_ns();
      tracer.add("cpu.trial_construct", t0, t1, program_span, id);
      probe.trial_construct_ns += t1 - t0;
      probe.trial_constructs += kConstructs;
    }

    // Baseline cells have no block stream to replay; their modeled time is
    // the fetch cost alone, applied when the residual is computed.
    if (!config.monitoring) continue;

    // Record the dynamic block stream with the lookup observer (a second,
    // identical run: the observer call would perturb the timed run).
    std::vector<std::pair<std::uint32_t, std::uint32_t>> stream;
    cpu::Cpu recorder(config, image);
    recorder.set_lookup_observer(
        [&stream](std::uint32_t start, std::uint32_t end) { stream.emplace_back(start, end); });
    const cpu::RunResult recorded = recorder.run();
    checks.expect(recorded == clean, id + ": observed run differs from the timed run");

    // FetchPath::fetch and hash_step over the words of every executed block.
    std::int64_t words = 0;
    std::uint32_t sink = 0;
    mem::FetchPath& fetch = recorder.fetch_path();
    std::int64_t t0 = now_ns();
    for (const auto& [start, end] : stream) {
      for (std::uint32_t a = start; a <= end; a += 4) sink ^= fetch.fetch(a);
      words += (end - start) / 4 + 1;
    }
    std::int64_t t1 = now_ns();
    tracer.add("mem.fetch", t0, t1, program_span, id);
    probe.fetch_ns += t1 - t0;
    probe.fetches += words;

    const cic::CodeIntegrityChecker& checker = *recorder.checker();
    std::uint32_t h = checker.rhash_init();
    t0 = now_ns();
    for (const auto& [start, end] : stream) {
      for (std::uint32_t a = start; a <= end; a += 4) h = checker.hash_step(h, image.word_at(a));
      sink ^= h;
      h = checker.rhash_init();
    }
    t1 = now_ns();
    tracer.add("hash.step", t0, t1, program_span, id);
    probe.hash_ns += t1 - t0;

    // Iht::lookup over the stream with a fresh table of this machine's size;
    // misses go through the OS handler exactly as in the run, timed apiece.
    const cfg::FullHashTable& fht = recorder.os_monitor()->fht();
    std::vector<std::uint32_t> hashes;
    hashes.reserve(stream.size());
    for (const auto& [start, end] : stream) hashes.push_back(fht.expected_hash(start, end).value_or(0));
    cic::Iht iht(config.cic.iht_entries, config.cic.replace_policy, config.cic.rng_seed);
    os::OsMonitor monitor(config.os, fht);
    std::int64_t miss_ns = 0, misses = 0;
    t0 = now_ns();
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const auto [start, end] = stream[i];
      const uop::IhtLookupResult found = iht.lookup(start, end, hashes[i]);
      if (!found.found) {
        const std::int64_t m0 = now_ns();
        monitor.handle_hash_miss({start, end, hashes[i]}, &iht);
        miss_ns += now_ns() - m0 - clock_ns;
        ++misses;
      }
    }
    t1 = now_ns();
    tracer.add("cic.lookup", t0, t1, program_span, id);
    const std::int64_t lookup_ns = t1 - t0 - miss_ns - misses * 2 * clock_ns;
    probe.lookup_ns[entries] += lookup_ns;
    probe.lookups[entries] += static_cast<std::int64_t>(stream.size());
    probe.miss_ns += miss_ns;
    probe.misses += misses;
    checks.expect(iht.stats() == clean.iht, id + ": replayed IHT stats differ from the run");
    checks.expect(monitor.stats().miss_exceptions == clean.os.miss_exceptions,
                  id + ": replayed miss exceptions differ from the run");
    if (sink == 0xdeadbeefU) std::fputs("", stderr);  // keeps the replays observable

    if (entries != 16) continue;
    // The campaign machine: golden recording, snapshot restores, golden
    // state shipping encode/decode.
    std::unique_ptr<fault::CheckpointedGolden> golden;
    phase("fault.golden", id, [&] {
      golden = std::make_unique<fault::CheckpointedGolden>(config, image, loaded, 0);
    });
    checks.expect(golden->result() == clean, id + ": golden run differs from the clean run");
    {
      cpu::Cpu trial(config, image, &loaded);
      constexpr int kRounds = 4;
      t0 = now_ns();
      for (int round = 0; round < kRounds; ++round) {
        for (const cpu::Snapshot& snapshot : golden->snapshots()) trial.restore_snapshot(snapshot);
      }
      t1 = now_ns();
      tracer.add("cpu.restore", t0, t1, program_span, id);
      probe.restore_ns += t1 - t0;
      probe.restores += kRounds * static_cast<std::int64_t>(golden->snapshot_count());
    }
    fault::GoldenState state;
    state.image_pages = *loaded.pages;
    state.fht_blob = loaded.fht.serialize();
    state.fht_was_attached = loaded.fht_was_attached;
    state.entry = loaded.entry;
    state.snapshots = golden->snapshots();
    state.stride = golden->stride();
    state.result = golden->result();
    const std::string key = fault::golden_key(
        {{"workload", name}, {"scale", exp::fmt_f64(scale)}, {"seed", std::to_string(campaign_seed)}});
    std::string blob;
    phase("fault.golden_encode", id, [&] { blob = fault::encode_golden(state, key); });
    fault::GoldenState decoded;
    phase("fault.golden_decode", id, [&] { decoded = fault::decode_golden(blob, key); });
    checks.expect(decoded.snapshots.size() == state.snapshots.size() &&
                      decoded.result == state.result,
                  id + ": golden blob did not round-trip");
    probe.golden_blob_bytes += blob.size();
  }
  tracer.close(program_span);
}

void write_probe(Json& j, const Probe& p) {
  auto per = [](std::int64_t ns, std::int64_t n) {
    return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
  };
  std::int64_t run_ns = 0, instructions = 0, monitored_instructions = 0, lookup_ns = 0,
               lookups = 0;
  for (const auto& [entries, ns] : p.run_ns) {
    run_ns += ns;
    instructions += p.instructions.at(entries);
    if (entries != 0) monitored_instructions += p.instructions.at(entries);
  }
  for (const auto& [entries, ns] : p.lookup_ns) {
    lookup_ns += ns;
    lookups += p.lookups.at(entries);
  }
  const double fetch_ns = per(p.fetch_ns, p.fetches);
  const double hash_ns = per(p.hash_ns, p.fetches);
  // Run time the replayed layers account for: one fetch per instruction, one
  // hash step per monitored instruction, every lookup and miss exception.
  const double modeled_ns = fetch_ns * static_cast<double>(instructions) +
                            hash_ns * static_cast<double>(monitored_instructions) +
                            static_cast<double>(lookup_ns + p.miss_ns);
  auto ms = [&p](const char* name) {
    const auto it = p.ms.find(name);
    return it == p.ms.end() ? 0.0 : it->second;
  };
  j.key("probe").begin_object();
  j.field("workloads.build_ms", ms("workloads.build"))
      .field("cpu.preload_ms", ms("cpu.preload"))
      .field("cfg.build_fht_ms", ms("cfg.build_fht"))
      .field("cpu.construct_ms", ms("cpu.construct"))
      .field("cpu.run_ms", ms("cpu.run"));
  for (const unsigned entries : kMachines) {
    j.field("cpu.mips." + machine_name(entries),
            1e3 * per(p.instructions.at(entries), p.run_ns.at(entries)));
  }
  j.field("cpu.residual_ns_per_instr",
          (static_cast<double>(run_ns) - modeled_ns) / static_cast<double>(instructions))
      .field("cpu.trial_construct_us", per(p.trial_construct_ns, p.trial_constructs) / 1e3)
      .field("cpu.restore_us", per(p.restore_ns, p.restores) / 1e3)
      .field("mem.fetch_ns", fetch_ns)
      .field("hash.step_ns", hash_ns);
  for (const auto& [entries, ns] : p.lookup_ns) {
    j.field("cic.lookup_ns." + std::to_string(entries), per(ns, p.lookups.at(entries)));
  }
  j.field("cic.iht.miss_rate", per(p.misses, lookups))
      .field("os.miss_handler_ns", per(p.miss_ns, p.misses))
      .field("os.miss_exceptions", p.misses)
      .field("fault.golden_ms", ms("fault.golden"))
      .field("fault.golden_encode_ms", ms("fault.golden_encode"))
      .field("fault.golden_decode_ms", ms("fault.golden_decode"))
      .field("fault.golden_blob_bytes", p.golden_blob_bytes)
      .end_object();
}

// --- Engine counters ----------------------------------------------------------

// The obs counters a run publishes (Cpu::publish_metrics and the campaign
// runner), read as deltas around the measured passes.
constexpr const char* kCounters[] = {
    "engine.runs",          "engine.instructions",         "campaign.skipped_instructions",
    "engine.tcache.hits",   "engine.tcache.translations",  "engine.tcache.invalidations",
    "engine.chain.follows", "engine.chain.breaks",         "engine.chain.severed",
    "campaign.cow_pages_copied", "campaign.snapshot_restores",
};

std::vector<std::uint64_t> counters_now() {
  const std::vector<std::uint64_t> all = obs::counter_values();
  std::vector<std::uint64_t> out;
  for (const char* name : kCounters) {
    const obs::CounterId id = obs::counter(name);
    out.push_back(id < all.size() ? all[id] : 0);
  }
  return out;
}

void write_counters(Json& j, const std::vector<std::uint64_t>& before,
                    const std::vector<std::uint64_t>& after) {
  j.key("counters").begin_object();
  for (std::size_t i = 0; i < std::size(kCounters); ++i) j.field(kCounters[i], after[i] - before[i]);
  j.end_object();
}

// --- Workloads ------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

// Runs passes until `seconds` elapse (at least three recorded). The first
// tenth of the budget (at least two passes) warms caches and the allocator
// and is checked but not recorded. In traced runs the first half of the
// rest runs untraced and the second half traced; traced passes count only
// toward the tracing overhead.
template <typename PassFn>
std::vector<Pass> closed_loop(const Options& o, Tracer& tracer, PassFn&& run_pass) {
  std::vector<Pass> passes;
  const std::int64_t budget = static_cast<std::int64_t>(o.seconds * 1e9);
  const std::int64_t warm_until = budget / 10;
  const std::int64_t untraced_until = o.trace ? warm_until + (budget - warm_until) / 2 : budget;
  const std::int64_t t0 = now_ns();
  std::size_t untraced = 0, traced_count = 0;
  for (std::size_t i = 0;; ++i) {
    const std::int64_t elapsed = now_ns() - t0;
    if (elapsed >= budget && untraced >= 3 && (!o.trace || traced_count >= 3)) break;
    const bool warming = i < 2 || (untraced == 0 && elapsed < warm_until);
    Pass pass;
    pass.traced = !warming && o.trace && elapsed >= untraced_until && untraced >= 3;
    pass.record = !warming && !pass.traced;
    tracer.set_enabled(pass.traced);
    const int span = tracer.open("pass", -1, std::to_string(i));
    const std::int64_t p0 = now_ns();
    run_pass(pass, span, i);
    pass.wall_ns = now_ns() - p0;
    tracer.close(span);
    if (warming) continue;
    ++(pass.traced ? traced_count : untraced);
    passes.push_back(pass);
  }
  tracer.set_enabled(o.trace);
  return passes;
}

constexpr double kKernelScale = 1.0;
constexpr double kFidelityScale = 1.0;

void run_kernels(const Options& o, Json& j, Checks& checks, Tracer& tracer) {
  const auto infos = workloads::all_workloads();
  const std::size_t cells = infos.size() * std::size(kMachines);
  std::vector<Fastest> cell_ns(cells), setup_ns(cells), run_ns(cells);
  std::vector<cpu::RunResult> first;
  std::vector<std::string> keys;
  const std::vector<std::uint64_t> before = counters_now();
  const std::vector<Pass> passes = closed_loop(o, tracer, [&](Pass& pass, int pass_span,
                                                              std::size_t index) {
    std::size_t cell = 0;
    for (const workloads::WorkloadInfo& info : infos) {
      for (const unsigned entries : kMachines) {
        const std::string id = std::string(info.name) + "/" + machine_name(entries);
        const cpu::CpuConfig config = machine_config(entries);
        const std::int64_t t0 = now_ns();
        const casm_::Image image =
            workloads::build_workload(info.name, {kKernelScale, o.seed});
        const std::int64_t t1 = now_ns();
        cpu::Cpu machine(config, image);
        const std::int64_t t2 = now_ns();
        const cpu::RunResult result = machine.run();
        const std::int64_t t3 = now_ns();
        machine.publish_metrics();
        const std::int64_t t4 = now_ns();
        if (tracer.enabled()) {
          const int cell_span = tracer.add("cell", t0, t4, pass_span, id);
          tracer.add("workloads.build", t0, t1, cell_span, id);
          tracer.add("cpu.construct", t1, t2, cell_span, id);
          tracer.add("cpu.run", t2, t3, cell_span, id);
        }
        if (pass.record) {
          cell_ns[cell].add(t4 - t0);
          setup_ns[cell].add(t2 - t0);
          run_ns[cell].add(t3 - t2);
        }
        if (index == 0) {
          first.push_back(result);
          keys.push_back(id);
          checks.expect(result.reason == cpu::ExitReason::kExit,
                        id + ": did not exit cleanly (" +
                            std::string(cpu::exit_reason_name(result.reason)) + ")");
        } else {
          checks.expect(result == first[cell], id + ": result differs from pass 0");
        }
        ++cell;
      }
    }
  });
  const std::vector<std::uint64_t> after = counters_now();

  // Seed-independent invariants of the scheme: the binary is identical with
  // and without the monitor, so instruction counts and application cycles
  // match the baseline; every IHT miss is one OS exception, and the monitor
  // cycles are exactly what the OS charged.
  for (std::size_t c = 0; c < first.size(); c += std::size(kMachines)) {
    const cpu::RunResult& base = first[c];
    checks.expect(base.monitor_cycles == 0 && base.iht.lookups == 0,
                  keys[c] + ": baseline shows monitor activity");
    for (std::size_t m = 1; m < std::size(kMachines); ++m) {
      const cpu::RunResult& r = first[c + m];
      checks.expect(r.instructions == base.instructions && r.app_cycles() == base.cycles,
                    keys[c + m] + ": monitored run diverges from its baseline");
      checks.expect(r.iht.misses == r.os.miss_exceptions &&
                        r.monitor_cycles == r.os.cycles_charged,
                    keys[c + m] + ": IHT misses / OS charges disagree");
    }
  }

  std::uint64_t instructions = 0;
  for (const cpu::RunResult& r : first) instructions += r.instructions;
  write_passes(j, passes);
  write_quiet(j, cell_ns, sum_values(setup_ns), sum_values(run_ns), sum_values(cell_ns),
              instructions);
  write_counters(j, before, after);
  j.key("cells").begin_object();
  for (std::size_t c = 0; c < first.size(); ++c) {
    j.key(keys[c]);
    write_result(j, first[c]);
  }
  j.end_object();

  // Model fidelity (simulated time, not a performance metric): Table 1
  // overheads at the paper's evaluation scale and the default input seed.
  j.key("fidelity").begin_object();
  for (const char* name : {"stringsearch", "bitcount"}) {
    const casm_::Image image = workloads::build_workload(name, {kFidelityScale, 42});
    std::uint64_t cycles[3] = {};
    for (std::size_t m = 0; m < 3; ++m) {
      cpu::Cpu machine(machine_config(kMachines[m]), image);
      cycles[m] = machine.run().cycles;
    }
    j.key(name)
        .begin_object()
        .field("cic8_pct", 100.0 * (static_cast<double>(cycles[1]) / cycles[0] - 1.0))
        .field("cic16_pct", 100.0 * (static_cast<double>(cycles[2]) / cycles[0] - 1.0))
        .end_object();
  }
  j.end_object();

  if (o.trace) {
    Probe probe;
    const int span = tracer.open("probe", -1);
    for (const workloads::WorkloadInfo& info : infos) {
      probe_program(std::string(info.name), kKernelScale, o.seed, 0, probe, tracer, span, checks);
    }
    tracer.close(span);
    write_probe(j, probe);
  }
}

constexpr const char* kCampaignProgram = "dijkstra";
constexpr fault::FaultSite kCampaignSite = fault::FaultSite::kFetchBus;
// Trials per pass: enough for a stable outcome mix, few enough that a run
// repeats every trial hundreds of times.
constexpr unsigned kCampaignTrials = 2000;
constexpr std::size_t kOracleSamples = 40;

void run_campaign(const Options& o, Json& j, Checks& checks, Tracer& tracer) {
  cpu::CpuConfig config;
  config.monitoring = true;
  config.cic.iht_entries = 16;  // the campaign machine of `cicmon campaign`

  const unsigned trials = kCampaignTrials;
  std::vector<Fastest> trial_ns(trials);
  Fastest setup_ns;
  std::vector<exp::CellResult> first;
  std::uint64_t golden_instructions = 0;
  std::uint64_t executed = 0;
  const std::vector<std::uint64_t> start = counters_now();
  const std::vector<Pass> passes = closed_loop(o, tracer, [&](Pass& pass, int pass_span,
                                                              std::size_t index) {
    // Set-up, once per pass: image build plus runner construction (loader,
    // golden run, snapshot schedule).
    const std::int64_t s0 = now_ns();
    const casm_::Image image = workloads::build_workload(kCampaignProgram, {1.0, 42});
    const fault::CampaignRunner runner(image, config);
    const exp::SweepSpec spec = runner.sweep(kCampaignSite, 1, trials, o.seed);
    const std::int64_t s1 = now_ns();
    tracer.add("campaign.setup", s0, s1, pass_span);
    if (pass.record) setup_ns.add(s1 - s0);
    golden_instructions = runner.golden_instructions();

    const std::vector<std::uint64_t> before = counters_now();
    std::vector<exp::CellResult> cells(spec.cells);
    for (std::size_t i = 0; i < spec.cells; ++i) {
      const std::int64_t t0 = now_ns();
      cells[i] = spec.run_cell(i);
      const std::int64_t t1 = now_ns();
      if (tracer.enabled()) tracer.add("trial", t0, t1, pass_span, std::to_string(i));
      if (pass.record) trial_ns[i].add(t1 - t0);
    }
    const std::vector<std::uint64_t> now = counters_now();
    // Executed instructions: engine.instructions counts a restored trial's
    // skipped golden prefix too, so subtract campaign.skipped_instructions.
    const std::uint64_t pass_executed = (now[1] - before[1]) - (now[2] - before[2]);
    if (index == 0) {
      first = std::move(cells);
      executed = pass_executed;
    } else {
      checks.expect(pass_executed == executed,
                    "pass " + std::to_string(index) + ": executed instructions differ from pass 0");
      for (std::size_t i = 0; i < cells.size(); ++i) {
        checks.expect(cells[i] == first[i], "pass " + std::to_string(index) + " trial " +
                                                std::to_string(i) + ": outcome differs from pass 0");
      }
    }
  });
  const std::vector<std::uint64_t> after = counters_now();

  // Oracle: the same trials on a checkpoints-off runner (every trial replays
  // its clean prefix) must land on the same outcomes.
  const casm_::Image image = workloads::build_workload(kCampaignProgram, {1.0, 42});
  const fault::CampaignRunner oracle(image, config, {false, 0});
  const exp::SweepSpec oracle_spec = oracle.sweep(kCampaignSite, 1, kCampaignTrials, o.seed);
  for (std::size_t i = 0; i < first.size(); i += first.size() / kOracleSamples) {
    checks.expect(oracle_spec.run_cell(i) == first[i],
                  "trial " + std::to_string(i) + ": checkpointed outcome differs from oracle");
  }

  const fault::CampaignSummary summary = fault::CampaignRunner::summary_from_cells(first);
  write_passes(j, passes);
  const std::int64_t exec_ns = sum_values(trial_ns);
  write_quiet(j, trial_ns, setup_ns.value(), exec_ns, setup_ns.value() + exec_ns, executed);
  write_counters(j, start, after);
  j.key("summary")
      .begin_object()
      .field("trials", summary.trials)
      .field("detected_mismatch", summary.detected_mismatch)
      .field("detected_miss", summary.detected_miss)
      .field("detected_baseline", summary.detected_baseline)
      .field("wrong_output", summary.wrong_output)
      .field("benign", summary.benign)
      .field("hang", summary.hang)
      .end_object();
  j.field("golden_instructions", golden_instructions);

  if (o.trace) {
    Probe probe;
    const int span = tracer.open("probe", -1);
    probe_program(kCampaignProgram, 1.0, 42, o.seed, probe, tracer, span, checks);
    tracer.close(span);
    write_probe(j, probe);
  }
}

int usage() {
  std::fputs(
      "usage: cicbench_harness kernels|campaign-bus --seed N --seconds S "
      "--trace 0|1 [--spans PATH]\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Options o;
  o.workload = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--spans") {
      o.spans = value;
    } else {
      return usage();
    }
  }

  Json j;
  Checks checks;
  Tracer tracer;
  j.begin_object().field("workload", o.workload).field("seed", o.seed);
  try {
    if (o.workload == "kernels") {
      run_kernels(o, j, checks, tracer);
    } else if (o.workload == "campaign-bus") {
      run_campaign(o, j, checks, tracer);
    } else {
      return usage();
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cicbench_harness: %s\n", error.what());
    return 1;
  }
  j.field("peak_rss_kb", peak_rss_kb());
  j.key("checks").begin_object().field("failed", checks.failed);
  j.key("messages").begin_array();
  for (const std::string& m : checks.messages) j.value(m);
  j.end_array().end_object().end_object();
  tracer.write(o.spans);
  std::printf("%s\n", j.str().c_str());
  return 0;
}
