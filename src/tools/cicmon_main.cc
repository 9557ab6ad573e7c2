// Unified experiment driver.
//
// One entry point for CI and users over the sweep engine (exp/sweep.h):
//
//   cicmon <table1|fig6|blocks|bench|campaign> [options]   run one sweep
//   cicmon dispatch <sweep> [options]   the same sweep over worker processes
//   cicmon worker <sweep> [options]     dispatch's session server
//   cicmon merge SHARD.json|DIR ...     aggregate shard artifacts
//   cicmon report TRACE.jsonl           render a --trace event log
//   cicmon workloads                    list the benchmark kernels
//
// Every flag is declared once, in kFlagTable: its name and metavar, its help
// text and help section, a strict typed value parser, and, for the flags
// dispatch forwards to its workers, the sweeps it reaches, its canonical
// value and its field in the campaign golden-state key. The parser, the help
// screen (`cicmon help`), the did-you-mean suggestions, worker_sweep_flags
// and campaign_golden_key are loops over that table.
//
// Every sweep subcommand also takes `--shard I/N [--out PATH] [--force]`,
// which runs only the cells owned by shard I of N and persists them as a
// `cicmon-shard-v1` partial artifact instead of printing the table;
// `cicmon merge` aggregates the partials and renders output byte-identical
// to the unsharded run. A sharded invocation whose artifact already exists
// and matches is skipped (resume); corrupt or mismatched artifacts are
// re-run. Determinism contract: everything a sweep subcommand prints to
// stdout is identical at any --jobs value, shard count, and process
// placement — host wall-clock measurements go to stderr (except `bench`,
// whose stdout is a throughput report by nature). CICMON_JOBS is the
// environment fallback; 0/unset resolves to hardware concurrency, 1 is the
// serial path.
//
// `cicmon dispatch <sweep> ...` is the scale-out driver: it over-decomposes
// the sweep into shard work items and schedules them through src/dist/ onto
// persistent worker sessions (`cicmon worker <sweep> ...` processes serving
// many shards over a framed pipe protocol — the default, including for
// stdio-forwarding --transport templates like ssh) or exec-per-shard
// subprocesses (`cicmon <sweep> --shard I/N --out ...`, the fallback for
// templates with per-item placeholders and --exec-per-shard), streams the
// merge incrementally as artifacts land, then renders — stdout is
// byte-identical to the direct invocation. For campaigns the orchestrator
// ships its own derived golden state down each session's pipe
// (fault/golden_ser.h), so workers skip their golden runs entirely;
// --golden-cache DIR additionally persists the encoded golden state on disk,
// keyed by a canonical hash of the campaign parameters, so repeated
// dispatches (and exec-per-shard workers sharing the directory) skip the
// derivation too. `cicmon worker` is the session server side and is not
// meant to be invoked by hand (its stdout speaks the wire protocol).
#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cpu/cpu.h"
#include "dist/orchestrator.h"
#include "dist/session.h"
#include "dist/transport.h"
#include "exp/sweep.h"
#include "fault/campaign.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/experiment.h"
#include "support/error.h"
#include "support/json.h"
#include "support/parallel.h"
#include "support/strings.h"
#include "support/subprocess.h"
#include "support/table.h"
#include "workloads/workloads.h"

namespace {

using namespace cicmon;

// Telemetry destinations, set at parse time like the --engine process-global:
// every subcommand takes --trace/--metrics/--metrics-out, and main() emits
// the summary after the command returns. Telemetry never writes to stdout —
// the determinism contract covers it.
std::string g_command;       // argv[1], recorded in trace/metrics headers
std::string g_metrics_mode;  // "" (off), "json", or "table"
std::string g_metrics_out;   // metrics sidecar path; "" = stderr

// The parsed command line. Defaults live here; what each field means and
// how it is spelled on the command line live in kFlagTable.
struct Options {
  double scale = 1.0;
  unsigned jobs = 0;  // 0 = resolve CICMON_JOBS / hardware concurrency
  std::string workload = "dijkstra";
  std::string site = "fetch-bus";
  unsigned bits = 1;
  unsigned trials = 1000;
  std::uint64_t seed = 2026;
  bool monitor = true;
  std::vector<unsigned> entries{1, 8, 16, 32};
  std::vector<unsigned> capacities{1, 8, 16, 32};
  std::string json_path;
  std::string shard_text;  // "--shard I/N"; empty = run every cell + render
  std::string out_path;    // shard artifact path; defaulted when empty
  bool force = false;
  std::vector<std::string> inputs;  // positional arguments (merge artifacts)
  // dispatch-only knobs (see dist::DispatchConfig for the semantics).
  unsigned workers = 0;          // 0 = nproc
  unsigned dispatch_shards = 0;  // 0 = auto (4x workers)
  unsigned retries = 2;
  double timeout = 300.0;  // seconds; 0 = none
  std::string transport;   // empty = local
  std::string dir;         // defaulted when empty
  bool quiet = false;
  bool dry_run = false;
  bool exec_per_shard = false;
  // --engine as given (empty = build-type default), kept as text so dispatch
  // can forward an explicit choice; the choice itself is applied to the
  // process-wide CpuConfig defaults at parse time.
  std::string engine_flag;
  // Execution strategies (fault::CheckpointConfig, fault/golden_ser.h):
  // byte-identical results either way, enforced by tests.
  bool checkpoints = true;
  std::uint64_t checkpoint_stride = 0;  // 0 = automatic schedule
  std::string golden_cache;             // empty = no disk cache
  bool ship_golden = true;
};

[[noreturn]] void usage(int code);

// --- Strict value grammar -------------------------------------------------
//
// Each helper accepts the whole token or exits 2 with the usage screen: no
// trailing text, no silent zero for garbage, no wrap-around of a negative.

std::uint64_t u64_arg(const char* text, std::uint64_t lo = 0,
                      std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t value = 0;
  if (!support::parse_u64(text, &value) || value < lo || value > hi) usage(2);
  return value;
}

unsigned count_arg(const char* text, unsigned lo, unsigned hi) {
  return static_cast<unsigned>(u64_arg(text, lo, hi));
}

// A finite double >= 0. Finite matters: "nan" would slip through a `<= 0`
// test, and converting an inf duration to the clock's integer representation
// is UB ("no timeout" is spelled 0).
double finite_arg(const char* text) {
  const std::string_view view(text);
  double value = 0.0;
  const auto [end, ec] = std::from_chars(view.data(), view.data() + view.size(), value);
  if (ec != std::errc() || end != view.data() + view.size() || !std::isfinite(value) ||
      value < 0.0) {
    usage(2);
  }
  return value;
}

std::string text_arg(const char* text) {
  if (text[0] == '\0') usage(2);
  return text;
}

bool on_off_arg(const char* text) {
  const std::string_view value(text);
  if (value != "on" && value != "off") usage(2);
  return value == "on";
}

std::string on_off(bool on) { return on ? "on" : "off"; }

// Comma-separated list of positive integers, parsed strictly (no trailing
// garbage). `what` names the source in the CicError: a CLI flag here, an
// artifact parameter on the merge path — where malformed input means a
// corrupt or hand-edited artifact and must never surface as the usage
// screen.
std::vector<unsigned> parse_unsigned_list(std::string_view text, const char* what) {
  std::vector<unsigned> values;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t comma = std::min(text.find(',', begin), text.size());
    std::uint64_t value = 0;
    support::check(support::parse_u64(text.substr(begin, comma - begin), &value) &&
                       value > 0 && value <= 0xFFFF'FFFFULL,
                   std::string(what) + " is malformed: '" + std::string(text) + "'");
    values.push_back(static_cast<unsigned>(value));
    begin = comma + 1;
  }
  return values;
}

std::vector<unsigned> list_arg(const char* text) {
  try {
    return parse_unsigned_list(text, "option value");
  } catch (const support::CicError&) {
    usage(2);
  }
}

std::string join_list(const std::vector<unsigned>& values) {
  std::string joined;
  for (const unsigned value : values) {
    if (!joined.empty()) joined += ',';
    joined += std::to_string(value);
  }
  return joined;
}

// --- The flag table -------------------------------------------------------

enum class Section { kTelemetry, kOptions, kSharding, kDispatch };

// The dispatchable sweeps. Bit i of a flag's `sweeps` mask is kSweeps[i].
constexpr std::array<std::string_view, 5> kSweeps = {"table1", "fig6", "blocks", "bench",
                                                     "campaign"};
constexpr unsigned kFig6 = 1U << 1, kBlocks = 1U << 2, kCampaign = 1U << 4, kEverySweep = 0x1F;

struct Flag {
  std::string_view name;
  std::string_view metavar;  // "" = a switch, which takes no value
  Section section;
  std::string_view help;  // one paragraph; usage() word-wraps it
  // Stores the value in Options, or runs the flag's parse-time side effect.
  // `value` is null for a switch.
  void (*parse)(Options& options, const char* value);
  // Dispatch passes `name canonical(options)` to the workers of every sweep
  // in `sweeps`, leaving out an empty value (an optional flag not given).
  // Workers re-derive the sweep from these flags and the orchestrator
  // validates their artifacts against its own spec, so the value must
  // round-trip exactly (fmt_f64 is the shortest form that parses back to the
  // same double).
  unsigned sweeps = 0;
  std::string (*canonical)(const Options& options) = nullptr;
  // The flag's field in the campaign golden-state key; "" = not part of it.
  std::string_view golden_key = "";
};

// Table order is forwarding order and golden-key order. The golden-key
// fields (workload through checkpoint_stride) are hashed in this order into
// every --golden-cache file name, so reordering them orphans existing
// caches; Cli.GoldenCacheFileNamesArePinned guards it.
constexpr Flag kFlagTable[] = {
    {"--trace", "FILE", Section::kTelemetry,
     "append cicmon-trace-v1 JSONL events (spans, instants, final counter snapshot) to FILE; "
     "never touches stdout",
     [](Options&, const char* value) {
       // Opened at parse time, like --engine: the header event lands before
       // any span the command emits.
       if (!obs::open_trace(text_arg(value), g_command)) {
         std::fprintf(stderr, "cicmon: cannot open trace file '%s'\n", value);
         std::exit(1);
       }
     }},
    {"--metrics", "json|table", Section::kTelemetry,
     "after the command, emit a cicmon-metrics-v1 summary of every counter/timer to stderr",
     [](Options&, const char* value) {
       g_metrics_mode = value;
       if (g_metrics_mode != "json" && g_metrics_mode != "table") usage(2);
     }},
    {"--metrics-out", "PATH", Section::kTelemetry,
     "write the --metrics summary to PATH instead of stderr",
     [](Options&, const char* value) { g_metrics_out = text_arg(value); }},

    {"--workload", "W", Section::kOptions, "campaign workload (default dijkstra)",
     [](Options& o, const char* value) { o.workload = value; }, kCampaign,
     [](const Options& o) { return o.workload; }, "workload"},
    {"--scale", "S", Section::kOptions, "workload scale factor, finite and > 0 (default 1.0)",
     [](Options& o, const char* value) {
       o.scale = finite_arg(value);
       if (o.scale == 0.0) usage(2);
     },
     kEverySweep, [](const Options& o) { return exp::fmt_f64(o.scale); }, "scale"},
    {"--engine", "threaded|switch", Section::kOptions,
     "execution engine: 'threaded' (fused superinstruction handlers over chained blocks behind "
     "a tamper-safe translation cache) or 'switch' (the per-uop predecode interpreter, the "
     "reference oracle); both produce byte-identical results (default: threaded in Release "
     "builds, switch in Debug builds)",
     [](Options& o, const char* value) {
       o.engine_flag = value;
       if (o.engine_flag != "switch" && o.engine_flag != "threaded") usage(2);
       cpu::set_default_engine(o.engine_flag == "switch" ? cpu::Engine::kSwitch
                                                         : cpu::Engine::kThreaded);
     },
     kEverySweep, [](const Options& o) { return o.engine_flag; }},
    {"--jobs", "N", Section::kOptions,
     "worker threads; 0 = CICMON_JOBS env or hardware concurrency, 1 = serial (default 0); "
     "under dispatch, each worker's thread count (default: hardware concurrency / workers)",
     [](Options& o, const char* value) {
       o.jobs = static_cast<unsigned>(
           std::min<std::uint64_t>(u64_arg(value), support::kMaxJobs));
     }},
    {"--entries", "A,B,..", Section::kOptions, "IHT sizes for fig6 (default 1,8,16,32)",
     [](Options& o, const char* value) { o.entries = list_arg(value); }, kFig6,
     [](const Options& o) { return join_list(o.entries); }},
    {"--capacities", "A,B,..", Section::kOptions,
     "LRU table sizes for blocks (default 1,8,16,32)",
     [](Options& o, const char* value) { o.capacities = list_arg(value); }, kBlocks,
     [](const Options& o) { return join_list(o.capacities); }},
    {"--site", "NAME", Section::kOptions,
     "fault site: memory-text, fetch-bus, fetch-bus-paired, icache-line, post-id-latch "
     "(default fetch-bus)",
     [](Options& o, const char* value) { o.site = value; }, kCampaign,
     [](const Options& o) { return o.site; }, "site"},
    {"--bits", "B", Section::kOptions, "flipped bits per fault, 1 to 32 (default 1)",
     [](Options& o, const char* value) { o.bits = count_arg(value, 1, 32); }, kCampaign,
     [](const Options& o) { return std::to_string(o.bits); }, "bits"},
    {"--trials", "N", Section::kOptions, "campaign trials (default 1000)",
     [](Options& o, const char* value) { o.trials = count_arg(value, 1, 100'000'000); },
     kCampaign, [](const Options& o) { return std::to_string(o.trials); }, "trials"},
    {"--seed", "X", Section::kOptions, "campaign seed (default 2026)",
     [](Options& o, const char* value) { o.seed = u64_arg(value); }, kCampaign,
     [](const Options& o) { return std::to_string(o.seed); }, "seed"},
    {"--monitor", "on|off", Section::kOptions, "campaign machine has the CIC (default on)",
     [](Options& o, const char* value) { o.monitor = on_off_arg(value); }, kCampaign,
     [](const Options& o) { return on_off(o.monitor); }, "monitor"},
    {"--checkpoints", "on|off", Section::kOptions,
     "campaign: fast-forward each trial by restoring the nearest golden-run snapshot before "
     "its trigger instead of re-simulating the clean prefix; never changes a trial outcome "
     "(default on; off exists for A/B checks and is forced under recovery mode)",
     [](Options& o, const char* value) { o.checkpoints = on_off_arg(value); }, kCampaign,
     [](const Options& o) { return on_off(o.checkpoints); }, "checkpoints"},
    {"--checkpoint-stride", "N", Section::kOptions,
     "campaign snapshot spacing in retired instructions; 0 = automatic bounded-memory schedule "
     "(default 0)",
     [](Options& o, const char* value) { o.checkpoint_stride = u64_arg(value); }, kCampaign,
     [](const Options& o) { return std::to_string(o.checkpoint_stride); }, "checkpoint_stride"},
    // Shared by session and exec-per-shard workers, so even the exec
    // fallback derives the golden state once per directory, not per shard.
    {"--golden-cache", "DIR", Section::kOptions,
     "campaign: cache the derived golden state (image, snapshots, golden result) on disk, "
     "keyed by a canonical hash of the campaign parameters; later runs with the same "
     "parameters load it instead of re-deriving; never changes any output",
     [](Options& o, const char* value) { o.golden_cache = text_arg(value); }, kCampaign,
     [](const Options& o) { return o.golden_cache; }},
    {"--json", "PATH", Section::kOptions,
     "bench: also write results as JSON to PATH; campaign (direct or dispatched): write a "
     "campaign section with the trials/sec trajectory metric (the dispatched form adds the "
     "fleet telemetry) instead",
     [](Options& o, const char* value) { o.json_path = text_arg(value); }},
    {"--help", "", Section::kOptions, "print this screen and exit (also -h)",
     [](Options&, const char*) { usage(0); }},

    {"--shard", "I/N", Section::kSharding,
     "run only the cells owned by shard I of N and write a cicmon-shard-v1 partial artifact, "
     "not the table",
     [](Options& o, const char* value) {
       o.shard_text = value;
       exp::parse_shard(o.shard_text);  // reject malformed I/N up front
     }},
    {"--out", "PATH", Section::kSharding,
     "artifact path (default cicmon-<sweep>-shard-IofN.json); a matching existing artifact is "
     "reused (resume)",
     [](Options& o, const char* value) { o.out_path = text_arg(value); }},
    {"--force", "", Section::kSharding, "rerun the shard even when its artifact matches",
     [](Options& o, const char*) { o.force = true; }},

    {"--workers", "K", Section::kDispatch,
     "concurrent worker processes (default: hardware concurrency)",
     [](Options& o, const char* value) { o.workers = count_arg(value, 1, 100'000); }},
    {"--shards", "N", Section::kDispatch,
     "work items; over-decomposed for load balancing (default 4x workers, capped at the cell "
     "count)",
     [](Options& o, const char* value) { o.dispatch_shards = count_arg(value, 1, 10'000'000); }},
    {"--transport", "T", Section::kDispatch,
     "launch workers through a shell template with {cmd}/{shard}/{out} placeholders, e.g. "
     "'ssh build-02 cd /repo && {cmd}' (default: local subprocesses); a template using only "
     "{cmd} forwards stdio and still gets persistent sessions + golden shipping; "
     "{shard}/{out} force exec-per-shard",
     [](Options& o, const char* value) { o.transport = text_arg(value); }},
    {"--retries", "R", Section::kDispatch, "extra attempts per shard after a failure (default 2)",
     [](Options& o, const char* value) { o.retries = count_arg(value, 0, 1000); }},
    {"--timeout", "SEC", Section::kDispatch,
     "per-shard wall-clock limit; 0 = none (default 300)",
     [](Options& o, const char* value) { o.timeout = finite_arg(value); }},
    {"--dir", "DIR", Section::kDispatch,
     "shard artifact directory (default cicmon-dispatch); valid artifacts already there are "
     "reused (resume)",
     [](Options& o, const char* value) { o.dir = text_arg(value); }},
    {"--quiet", "", Section::kDispatch, "suppress the live progress/ETA lines on stderr",
     [](Options& o, const char*) { o.quiet = true; }},
    {"--exec-per-shard", "", Section::kDispatch,
     "spawn one process per shard instead of persistent worker sessions (sessions are the "
     "default whenever the transport forwards stdio)",
     [](Options& o, const char*) { o.exec_per_shard = true; }},
    {"--ship-golden", "on|off", Section::kDispatch,
     "campaign: offer the orchestrator's derived golden state to each session worker over the "
     "wire so the worker skips its own golden run (default on; off exists for A/B "
     "byte-identity checks)",
     [](Options& o, const char* value) { o.ship_golden = on_off_arg(value); }},
    {"--dry-run", "", Section::kDispatch,
     "print the planned shard grid, worker commands, and session mode, then exit without "
     "launching anything",
     [](Options& o, const char*) { o.dry_run = true; }},
};

// One help entry per flag of `section`: name and metavar, then the help text
// word-wrapped into a column, starting on the next line when the name
// leaves no two-space gap before the column.
void print_flags(std::FILE* out, Section section) {
  constexpr std::size_t kColumn = 19;
  constexpr std::size_t kWidth = 78;
  for (const Flag& flag : kFlagTable) {
    if (flag.section != section) continue;
    std::string line = "  " + std::string(flag.name);
    if (!flag.metavar.empty()) (line += ' ') += flag.metavar;
    if (line.size() + 2 > kColumn) {
      std::fprintf(out, "%s\n", line.c_str());
      line.clear();
    }
    line.resize(kColumn, ' ');
    bool first = true;
    for (const std::string_view word : support::split(flag.help, " ")) {
      if (!first && line.size() + 1 + word.size() > kWidth) {
        std::fprintf(out, "%s\n", line.c_str());
        line.assign(kColumn, ' ');
        first = true;
      }
      if (!first) line += ' ';
      line += word;
      first = false;
    }
    std::fprintf(out, "%s\n", line.c_str());
  }
}

[[noreturn]] void usage(int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fputs(
      "usage: cicmon <command> [options]\n"
      "\n"
      "commands:\n"
      "  table1      Table 1: cycle-count overhead (baseline vs CIC8/CIC16)\n"
      "  fig6        Figure 6: IHT miss rate vs table size\n"
      "  blocks      Section 6.1: executed-block counts and LRU locality\n"
      "  bench       simulator throughput over all workloads\n"
      "  campaign    random fault-injection campaign\n"
      "  dispatch    scale a sweep out over worker processes or hosts\n"
      "  worker      persistent dispatch worker (serves shards over stdin/stdout;\n"
      "              spawned by dispatch, not meant for interactive use)\n"
      "  merge       aggregate cicmon-shard-v1 artifacts into the full output\n"
      "  report      render a cicmon-trace-v1 event log (--trace output) as\n"
      "              per-phase/per-worker breakdown tables\n"
      "  workloads   list the benchmark kernels\n"
      "\n"
      "telemetry (every command; see docs/telemetry.md):\n",
      out);
  print_flags(out, Section::kTelemetry);
  std::fputs("\noptions:\n", out);
  print_flags(out, Section::kOptions);
  std::fputs("\nsharding (table1/fig6/blocks/bench/campaign):\n", out);
  print_flags(out, Section::kSharding);
  std::fputs(
      "\n"
      "`cicmon merge s1.json s2.json ...` needs every shard of one run and\n"
      "prints output byte-identical to the unsharded invocation. A directory\n"
      "argument is scanned for *.shard.json artifacts.\n"
      "\n"
      "dispatch (cicmon dispatch <table1|fig6|blocks|bench|campaign> ...):\n",
      out);
  print_flags(out, Section::kDispatch);
  std::fputs(
      "\n"
      "dispatch stdout is byte-identical to the direct invocation of the\n"
      "same sweep, at any worker/shard count, in either session mode, and\n"
      "across worker kills and retries. Incremental merge progress streams\n"
      "to stderr as shards land.\n",
      out);
  std::exit(code);
}

// "; did you mean 'X'?" when `given` is plausibly a typo of a candidate —
// the same one-edit-per-three-characters budget workloads::closest_workload
// uses — otherwise an empty string. Shared by the unknown-subcommand and
// unknown-flag paths.
std::string did_you_mean(std::string_view given, std::span<const std::string_view> candidates) {
  const std::string lowered = support::to_lower(given);
  std::string_view best;
  std::size_t best_distance = std::string::npos;
  for (const std::string_view candidate : candidates) {
    const std::size_t distance = support::edit_distance(lowered, candidate);
    if (distance < best_distance) {
      best = candidate;
      best_distance = distance;
    }
  }
  const std::size_t budget = std::max<std::size_t>(2, lowered.size() / 3);
  if (best_distance > budget) return "";
  return "; did you mean '" + std::string(best) + "'?";
}

constexpr std::array<std::string_view, 11> kCommands = {
    "table1", "fig6",  "blocks",    "bench", "campaign", "worker",
    "dispatch", "merge", "report", "workloads", "help"};

// `first` is the index of the first flag: 2 for `cicmon <cmd> ...`, 3 for
// `cicmon dispatch <cmd> ...`.
Options parse_options(int argc, char** argv, bool allow_positional, int first = 2) {
  Options options;
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "-h") usage(0);
    const auto flag = std::find_if(std::begin(kFlagTable), std::end(kFlagTable),
                                   [&](const Flag& f) { return f.name == arg; });
    if (flag != std::end(kFlagTable)) {
      const char* value = nullptr;
      if (!flag->metavar.empty()) {
        if (i + 1 >= argc) usage(2);
        value = argv[++i];
      }
      flag->parse(options, value);
    } else if (allow_positional && (arg.empty() || arg.front() != '-')) {
      options.inputs.emplace_back(arg);  // merge artifact paths
    } else {
      const bool is_option = !arg.empty() && arg.front() == '-';
      std::vector<std::string_view> names;
      for (const Flag& f : kFlagTable) names.push_back(f.name);
      std::fprintf(stderr, "cicmon: unknown %s '%s'%s\n", is_option ? "option" : "argument",
                   argv[i], is_option ? did_you_mean(arg, names).c_str() : "");
      usage(2);
    }
  }
  return options;
}

fault::FaultSite parse_site(const std::string& name) {
  for (const fault::FaultSite site :
       {fault::FaultSite::kMemoryText, fault::FaultSite::kFetchBus,
        fault::FaultSite::kFetchBusPaired, fault::FaultSite::kICacheLine,
        fault::FaultSite::kPostIdLatch}) {
    if (fault_site_name(site) == name) return site;
  }
  std::fprintf(stderr, "cicmon: unknown fault site '%s'\n", name.c_str());
  usage(2);
}


// --- Rendering: cells -> stdout -----------------------------------------
//
// Both the direct path (run all cells, render) and `cicmon merge` (load
// partial artifacts, merge, render) funnel through these functions, and the
// rendering depends only on (params, cells) — that shared funnel is what
// makes the merged output byte-identical to the unsharded run.

void render_table1(const std::vector<exp::CellResult>& cells) {
  const auto rows = sim::table1_rows(cells);
  support::Table table(
      {"benchmark", "cycles (no CIC)", "CIC8", "CIC16", "ovh CIC8", "ovh CIC16"});
  double sum8 = 0, sum16 = 0;
  for (const sim::Table1Row& row : rows) {
    table.add_row({row.workload, support::Table::fmt_u64(row.cycles_baseline),
                   support::Table::fmt_u64(row.cycles_cic8),
                   support::Table::fmt_u64(row.cycles_cic16),
                   support::Table::fmt_pct(row.overhead_cic8),
                   support::Table::fmt_pct(row.overhead_cic16)});
    sum8 += row.overhead_cic8;
    sum16 += row.overhead_cic16;
  }
  const double n = static_cast<double>(rows.size());
  table.add_row({"average", "-", "-", "-", support::Table::fmt_pct(sum8 / n),
                 support::Table::fmt_pct(sum16 / n)});
  std::fputs(table.render().c_str(), stdout);
}

void render_fig6(const exp::SweepParams& params, const std::vector<exp::CellResult>& cells) {
  const std::vector<unsigned> entries =
      parse_unsigned_list(exp::param(params, "entries"), "artifact parameter 'entries'");
  const auto rows = sim::fig6_rows(cells, entries.size());
  std::vector<std::string> headers{"benchmark"};
  for (const unsigned entry : entries) headers.push_back(std::to_string(entry));
  support::Table table(headers);
  for (const sim::Fig6Row& row : rows) {
    std::vector<std::string> line{row.workload};
    for (const double rate : row.miss_rates) line.push_back(support::Table::fmt_pct(rate));
    table.add_row(line);
  }
  std::fputs(table.render().c_str(), stdout);
}

void render_blocks(const exp::SweepParams& params, const std::vector<exp::CellResult>& cells) {
  const std::vector<unsigned> capacities =
      parse_unsigned_list(exp::param(params, "capacities"), "artifact parameter 'capacities'");
  const auto rows = sim::blocks_rows(cells, capacities);
  std::vector<std::string> headers{"benchmark", "static regions", "executed keys",
                                   "lookups", "instr/block"};
  for (const unsigned capacity : capacities) {
    headers.push_back("LRU hit@" + std::to_string(capacity));
  }
  support::Table table(headers);
  for (const sim::BlockStats& stats : rows) {
    std::vector<std::string> line{stats.workload, support::Table::fmt_u64(stats.static_regions),
                                  support::Table::fmt_u64(stats.dynamic_keys),
                                  support::Table::fmt_u64(stats.lookups),
                                  support::Table::fmt(stats.mean_block_instructions, 1)};
    for (const double rate : stats.lru_hit_rate) line.push_back(support::Table::fmt_pct(rate));
    table.add_row(line);
  }
  std::fputs(table.render().c_str(), stdout);
}

void render_campaign(const exp::SweepParams& params,
                     const std::vector<exp::CellResult>& cells) {
  const fault::CampaignSummary summary = fault::CampaignRunner::summary_from_cells(cells);
  const std::string_view golden_text = exp::param(params, "golden_instructions");
  std::uint64_t golden = 0;
  support::check(support::parse_u64(golden_text, &golden),
                 "artifact parameter 'golden_instructions' is malformed: '" +
                     std::string(golden_text) + "'");
  std::printf("workload %s (scale %.2f): %llu golden instructions\n",
              std::string(exp::param(params, "workload")).c_str(),
              exp::parse_f64(exp::param(params, "scale")),
              static_cast<unsigned long long>(golden));
  std::printf("site %s, %s-bit faults, %s trials, seed %s, monitor %s\n\n",
              std::string(exp::param(params, "site")).c_str(),
              std::string(exp::param(params, "bits")).c_str(),
              std::string(exp::param(params, "trials")).c_str(),
              std::string(exp::param(params, "seed")).c_str(),
              std::string(exp::param(params, "monitor")).c_str());

  support::Table table({"outcome", "count"});
  for (const auto& [outcome, count] : {std::pair{"detected-mismatch", summary.detected_mismatch},
                                       {"detected-miss", summary.detected_miss},
                                       {"detected-baseline", summary.detected_baseline},
                                       {"wrong-output", summary.wrong_output},
                                       {"benign", summary.benign},
                                       {"hang", summary.hang}}) {
    table.add_row({outcome, support::Table::fmt_u64(count)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\ndetection: %s effective, %s of all trials\n",
              support::Table::fmt_pct(summary.detection_rate_effective()).c_str(),
              support::Table::fmt_pct(summary.detection_rate_total()).c_str());
}

// Writes a --json or --metrics-out document; `what` names it in the error.
int write_text_file(const std::string& path, const std::string& text, const char* what) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cicmon: cannot write %s to '%s'\n", what, path.c_str());
    return 1;
  }
  std::fwrite(text.data(), 1, text.size(), out);
  std::fclose(out);
  return 0;
}

// One "key": value member of the flat cicmon-bench-v1 documents below.
void put(support::JsonWriter& json, std::string_view key, std::string_view value) {
  json.key(key);
  json.value(value);
}

void put_u64(support::JsonWriter& json, std::string_view key, std::uint64_t value) {
  json.key(key);
  json.value_u64(value);
}

void put_fixed(support::JsonWriter& json, std::string_view key, double value, int precision) {
  json.key(key);
  json.value_fixed(value, precision);
}

// Writes the bench cells as a stable machine-readable JSON document (the
// `cicmon-bench-v1` schema consumed by CI's regression gate and committed as
// the BENCH_*.json trajectory artifacts). Simulated columns (instructions,
// cycles) are deterministic; host_ms/mips are wall-clock measurements.
int write_bench_json(const std::string& path, double scale, unsigned jobs,
                     const std::vector<exp::CellResult>& cells, double total_minstr,
                     double total_ms) {
  const auto infos = workloads::all_workloads();
  support::JsonWriter json;
  json.begin_object();
  put(json, "schema", "cicmon-bench-v1");
  json.key("scale");
  json.value(scale);
  put_u64(json, "jobs", jobs);
  put(json, "engine", cpu::engine_name(cpu::default_engine()));
  json.key("workloads");
  json.begin_array();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const double minstr = static_cast<double>(cells[i].u64.at(0)) / 1e6;
    const double wall_ms = cells[i].f64.at(0);
    json.begin_object();
    put(json, "benchmark", infos[i / 2].name);
    put(json, "machine", i % 2 == 0 ? "baseline" : "cic16");
    put_u64(json, "instructions", cells[i].u64.at(0));
    put_u64(json, "cycles", cells[i].u64.at(1));
    put_fixed(json, "host_ms", wall_ms, 3);
    put_fixed(json, "mips", minstr / (wall_ms / 1000.0), 3);
    json.end_object();
  }
  json.end_array();
  json.key("total");
  json.begin_object();
  put_fixed(json, "minstr", total_minstr, 3);
  put_fixed(json, "wall_ms", total_ms, 1);
  put_fixed(json, "aggregate_mips", total_minstr / (total_ms / 1000.0), 3);
  json.end_object();
  json.end_object();
  return write_text_file(path, json.take(), "JSON");
}

// `total_ms` < 0 means "no whole-run measurement" (the merge path) and is
// replaced by the sum of the per-cell wall clocks.
int render_bench(const exp::SweepParams& params, const std::vector<exp::CellResult>& cells,
                 double total_ms, unsigned jobs, const std::string& json_path) {
  const auto infos = workloads::all_workloads();
  support::check(cells.size() == infos.size() * 2,
                 "bench cell vector does not match the workload grid");
  for (const exp::CellResult& cell : cells) {
    support::check(cell.u64.size() == 2 && cell.f64.size() == 1,
                   "bench cell payload has the wrong shape");
  }
  // The merge path has no whole-run wall clock and no meaningful job count —
  // the timings were produced by other processes at their own --jobs.
  const bool merged = total_ms < 0;
  if (merged) {
    total_ms = 0;
    for (const exp::CellResult& cell : cells) total_ms += cell.f64.at(0);
  }
  support::Table table({"benchmark", "machine", "instructions", "cycles", "host ms", "MIPS"});
  double total_minstr = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const double minstr = static_cast<double>(cells[i].u64.at(0)) / 1e6;
    const double wall_ms = cells[i].f64.at(0);
    total_minstr += minstr;
    table.add_row({std::string(infos[i / 2].name), i % 2 == 0 ? "baseline" : "cic16",
                   support::Table::fmt_u64(cells[i].u64.at(0)),
                   support::Table::fmt_u64(cells[i].u64.at(1)),
                   support::Table::fmt(wall_ms, 1),
                   support::Table::fmt(minstr / (wall_ms / 1000.0), 1)});
  }
  std::fputs(table.render().c_str(), stdout);
  const std::string how = merged ? "merged shards" : std::to_string(jobs) + " jobs";
  std::printf("\ntotal: %.1f Minstr in %.0f ms wall (%s) = %.1f MIPS aggregate\n", total_minstr,
              total_ms, how.c_str(), total_minstr / (total_ms / 1000.0));
  if (!json_path.empty()) {
    // jobs 0 in the JSON marks a merged document for the same reason.
    return write_bench_json(json_path, exp::parse_f64(exp::param(params, "scale")),
                            merged ? 0 : jobs, cells, total_minstr, total_ms);
  }
  return 0;
}

int render_cells(const std::string& sweep, const exp::SweepParams& params,
                 const std::vector<exp::CellResult>& cells, const Options& options,
                 double bench_total_ms) {
  if (sweep == "bench") {
    return render_bench(params, cells, bench_total_ms, support::resolve_jobs(options.jobs),
                        options.json_path);
  }
  if (sweep == "table1") {
    render_table1(cells);
  } else if (sweep == "fig6") {
    render_fig6(params, cells);
  } else if (sweep == "blocks") {
    render_blocks(params, cells);
  } else if (sweep == "campaign") {
    render_campaign(params, cells);
  } else {
    std::fprintf(stderr, "cicmon: cannot render sweep '%s'\n", sweep.c_str());
    return 1;
  }
  return 0;
}

// --- Sweep subcommand driver --------------------------------------------

bool sharded_mode(const Options& options) {
  return !options.shard_text.empty() || !options.out_path.empty();
}

// Runs a sweep subcommand: sharded mode persists a partial artifact (reusing
// a matching one — resume), the direct path runs every cell and renders.
int run_sweep_command(const exp::SweepSpec& spec, const Options& options) {
  if (sharded_mode(options)) {
    if (!options.json_path.empty()) {
      std::fprintf(stderr,
                   "cicmon: --json cannot be combined with --shard/--out; merge the shard "
                   "artifacts with 'cicmon merge ... --json PATH' instead\n");
      return 2;
    }
    const exp::Shard shard = options.shard_text.empty()
                                 ? exp::Shard{1, 1}
                                 : exp::parse_shard(options.shard_text);
    const std::string path =
        options.out_path.empty()
            ? "cicmon-" + spec.sweep + "-shard-" + std::to_string(shard.index) + "of" +
                  std::to_string(shard.count) + ".json"
            : options.out_path;
    bool reused = false;
    exp::run_or_load_shard(spec, shard, options.jobs, path, options.force, &reused);
    std::fprintf(stderr, "cicmon: %s shard %u/%u %s '%s'\n", spec.sweep.c_str(), shard.index,
                 shard.count, reused ? "is already complete at" : "written to", path.c_str());
    return 0;
  }
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t run_t_us = obs::trace_now_us();
  const std::vector<exp::CellResult> cells = exp::run_all(spec, options.jobs);
  const double total_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  if (obs::trace_enabled()) {
    obs::TraceArgs args;
    args.add("sweep", spec.sweep);
    args.add("cells", static_cast<std::uint64_t>(spec.cells));
    args.add("jobs", static_cast<std::uint64_t>(support::resolve_jobs(options.jobs)));
    obs::trace_span("sweep.run", run_t_us, args);
  }
  obs::Span render_span("sweep.render");
  return render_cells(spec.sweep, spec.params, cells, options, total_ms);
}

// A sweep spec plus whatever live state its run_cell borrows — the campaign
// spec captures its CampaignRunner by reference, so the two travel together.
// For campaigns, golden_key/golden_source record the canonical identity of
// the golden state and where this process got it (derived, disk cache, or a
// blob shipped over the session wire).
struct SweepBundle {
  exp::SweepSpec spec;
  std::unique_ptr<fault::CampaignRunner> keepalive;
  std::string golden_key;     // campaign only; "" otherwise
  std::string golden_source;  // "shipped" / "cached" / "derived"; "" otherwise
};

// The canonical golden-state identity: every parameter the derived golden
// state depends on, and nothing else. Execution strategies (engine, jobs)
// are deliberately excluded — they never change the golden state, so a
// cache or shipment produced under one strategy serves every other. The
// fields are the flag-table entries that name a golden_key, in table order.
std::string campaign_golden_key(const Options& options) {
  std::vector<std::pair<std::string, std::string>> fields;
  for (const Flag& flag : kFlagTable) {
    if (!flag.golden_key.empty()) fields.emplace_back(flag.golden_key, flag.canonical(options));
  }
  return fault::golden_key(fields);
}

// Builds the campaign runner the cheapest honest way available: import a
// blob `shipped` over the session wire, else the --golden-cache entry, else
// derive (golden run) and populate the cache. Every failure short of
// derivation failing is a downgrade, not an error — the artifact checks
// protect the results, so a corrupt blob or cache file just costs the
// derivation it was meant to save.
SweepBundle make_campaign_sweep(const Options& options, const std::string* shipped) {
  // Validate the site and workload before paying for the golden run.
  const fault::FaultSite site = parse_site(options.site);
  try {
    workloads::find_workload(options.workload);
  } catch (const support::CicError& error) {
    std::fprintf(stderr, "cicmon: %s\n", error.what());
    std::fprintf(stderr, "cicmon: run 'cicmon workloads' to see them described\n");
    std::exit(2);
  }
  const casm_::Image image =
      workloads::build_workload(options.workload, {options.scale, 42});
  cpu::CpuConfig config;
  config.monitoring = options.monitor;
  config.cic.iht_entries = 16;
  const fault::CheckpointConfig checkpoints{options.checkpoints, options.checkpoint_stride};
  const std::string key = campaign_golden_key(options);

  // Covers the whole golden acquisition: wire import, cache load, or the
  // golden run itself; the args say which way it went.
  obs::Span golden_span("campaign.golden");
  std::unique_ptr<fault::CampaignRunner> runner;
  std::string source;
  // Imports a golden blob from `from`; a rejected blob leaves `runner` null.
  auto import = [&](const std::string& blob, const char* from) {
    try {
      runner = std::make_unique<fault::CampaignRunner>(image, config, checkpoints,
                                                       fault::decode_golden(blob, key));
      source = from;
    } catch (const support::CicError& error) {
      std::fprintf(stderr, "cicmon: %s golden state rejected (%s); deriving locally\n", from,
                   error.what());
    }
  };
  if (shipped != nullptr) import(*shipped, "shipped");
  if (runner == nullptr && !options.golden_cache.empty()) {
    // load_cached_golden already validated magic/key/checksum; decode can
    // still reject structure, and a stale or truncated entry is overwritten
    // below by the fresh derivation.
    const std::string blob = fault::load_cached_golden(options.golden_cache, key);
    if (!blob.empty()) import(blob, "cached");
  }
  if (runner == nullptr) {
    runner = std::make_unique<fault::CampaignRunner>(image, config, checkpoints);
    source = "derived";
    if (!options.golden_cache.empty()) {
      fault::store_cached_golden(options.golden_cache, key,
                                 fault::encode_golden(runner->export_golden(), key));
    }
  }

  golden_span.args().add("source", source);
  golden_span.close();

  exp::SweepSpec spec = runner->sweep(site, options.bits, options.trials, options.seed);
  // Parameters the runner cannot know but rendering and artifact matching
  // need: how the machine and image were set up, and the golden-run fact the
  // header reports (deterministic, so merge can reprint it without a run).
  spec.params.emplace_back("workload", options.workload);
  spec.params.emplace_back("scale", exp::fmt_f64(options.scale));
  spec.params.emplace_back("monitor", on_off(options.monitor));
  spec.params.emplace_back("golden_instructions",
                           std::to_string(runner->golden_instructions()));
  return {std::move(spec), std::move(runner), key, std::move(source)};
}

// The five dispatchable sweeps, by subcommand name. For "campaign" this pays
// for the golden derivation up front (wire blob, disk cache, or golden run)
// — dispatch needs the exact params workers will record to validate their
// artifacts against, and the derived golden state is what it ships.
SweepBundle make_sweep(std::string_view command, const Options& options,
                       const std::string* shipped = nullptr) {
  if (command == "table1") return {sim::table1_sweep(options.scale), nullptr, "", ""};
  if (command == "fig6") return {sim::fig6_sweep(options.entries, options.scale), nullptr, "", ""};
  if (command == "blocks") {
    return {sim::blocks_sweep(options.capacities, options.scale), nullptr, "", ""};
  }
  if (command == "bench") return {sim::bench_sweep(options.scale), nullptr, "", ""};
  return make_campaign_sweep(options, shipped);
}

// Campaign counterpart of write_bench_json: the same cicmon-bench-v1 schema,
// but carrying a "campaign" object instead of the workload grid, so the
// campaign path has its own machine-readable perf trajectory number
// (trials_per_sec — the figure BENCH_PR7.json tracks before/after
// checkpointing). With `dispatch`, the throughput is the whole dispatch
// (orchestrator wall clock over all trials) and a nested "dispatch" object
// reports the fleet telemetry — including the summed worker-measured shard
// wall clock (the useful work) that an honest dispatch-tax number divides
// by; the direct run reports its jobs and restore counts instead.
// Everything except the wall-clock figures is deterministic.
int write_campaign_json(const std::string& path, const Options& options,
                        const fault::CampaignRunner& runner, double wall_ms,
                        const dist::DispatchResult* dispatch = nullptr) {
  support::JsonWriter json;
  json.begin_object();
  put(json, "schema", "cicmon-bench-v1");
  json.key("campaign");
  json.begin_object();
  put(json, "workload", options.workload);
  json.key("scale");
  json.value(options.scale);
  put(json, "site", options.site);
  put_u64(json, "bits", options.bits);
  put_u64(json, "trials", options.trials);
  put_u64(json, "seed", options.seed);
  put(json, "monitor", on_off(options.monitor));
  put(json, "engine", cpu::engine_name(cpu::default_engine()));
  if (dispatch == nullptr) put_u64(json, "jobs", support::resolve_jobs(options.jobs));
  put(json, "checkpoints", on_off(runner.checkpoints_enabled()));
  put_u64(json, "checkpoint_stride", runner.checkpoint_stride());
  put_u64(json, "snapshots", runner.snapshot_count());
  if (dispatch == nullptr) {
    put_u64(json, "restores", runner.restores());
    put_u64(json, "skipped_instructions", runner.skipped_instructions());
  }
  put_u64(json, "golden_instructions", runner.golden_instructions());
  if (dispatch != nullptr) {
    json.key("dispatch");
    json.begin_object();
    put(json, "mode", dispatch->persistent ? "sessions" : "exec");
    put_u64(json, "shards", dispatch->shard_count);
    put_u64(json, "reused", dispatch->reused);
    put_u64(json, "launched", dispatch->launched);
    put_u64(json, "retried", dispatch->retried);
    put_u64(json, "golden_shipped", dispatch->golden_shipped);
    put_u64(json, "golden_cached", dispatch->golden_cached);
    put_u64(json, "golden_derived", dispatch->golden_derived);
    put_u64(json, "worker_wall_ms", dispatch->worker_wall_ms);
    put_u64(json, "busy_ms", dispatch->busy_ms);
    put_u64(json, "queue_wait_ms", dispatch->queue_wait_ms);
    put_u64(json, "elapsed_ms", dispatch->elapsed_ms);
    json.end_object();
  }
  put_fixed(json, "wall_ms", wall_ms, 1);
  put_fixed(json, "trials_per_sec", static_cast<double>(options.trials) / (wall_ms / 1000.0), 1);
  json.end_object();
  json.end_object();
  return write_text_file(path, json.take(), "JSON");
}

int cmd_campaign(const Options& options) {
  const SweepBundle bundle = make_campaign_sweep(options, nullptr);
  const fault::CampaignRunner& runner = *bundle.keepalive;
  const auto start = std::chrono::steady_clock::now();
  const int code = run_sweep_command(bundle.spec, options);
  // The acceleration report: how much clean-prefix simulation the snapshot
  // restores avoided in this process (a sharded invocation reports its own
  // shard's share).
  if (runner.checkpoints_enabled()) {
    std::fprintf(stderr,
                 "campaign: checkpoints on, stride %llu, %zu snapshot(s); "
                 "%llu restore(s) skipped %llu instructions\n",
                 static_cast<unsigned long long>(runner.checkpoint_stride()),
                 runner.snapshot_count(),
                 static_cast<unsigned long long>(runner.restores()),
                 static_cast<unsigned long long>(runner.skipped_instructions()));
  } else {
    std::fprintf(stderr, "campaign: checkpoints off (full re-execution per trial)\n");
  }
  if (!sharded_mode(options)) {
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    const double trials_per_sec = static_cast<double>(options.trials) / (ms / 1000.0);
    static const obs::TimerId k_trials_per_sec = obs::timer("campaign.trials_per_sec");
    obs::record(k_trials_per_sec, trials_per_sec);
    std::fprintf(stderr, "campaign: %u jobs, %.0f ms wall (%.1f trials/s)\n",
                 support::resolve_jobs(options.jobs), ms, trials_per_sec);
    if (code == 0 && !options.json_path.empty()) {
      return write_campaign_json(options.json_path, options, runner, ms);
    }
  }
  return code;
}

// `cicmon report <trace.jsonl>`: renders a --trace event log as per-phase /
// per-worker breakdown tables (obs/report.h).
int cmd_report(const Options& options) {
  if (options.inputs.size() != 1) {
    std::fprintf(stderr, "cicmon: report needs exactly one cicmon-trace-v1 file\n");
    usage(2);
  }
  const std::string& path = options.inputs.front();
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    std::fprintf(stderr, "cicmon: cannot read trace file '%s'\n", path.c_str());
    return 1;
  }
  std::string text;
  char buffer[65536];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, in)) > 0) text.append(buffer, got);
  std::fclose(in);
  std::fputs(obs::render_report(text).c_str(), stdout);
  return 0;
}

// True for names dispatch and the sharded subcommands produce by default:
// "<sweep>-IofN.shard.json" and "cicmon-<sweep>-shard-IofN.json". The merge
// validation rejects anything that slips through a looser match anyway; this
// filter just keeps unrelated JSON (bench output, configs) out of the scan.
bool looks_like_shard_artifact(const std::string& name) {
  return name.ends_with(".shard.json") ||
         (name.starts_with("cicmon-") && name.find("-shard-") != std::string::npos &&
          name.ends_with(".json"));
}

// Merge inputs may be artifact files or directories; a directory contributes
// every shard artifact inside it, in sorted order so the command line stays
// deterministic. A directory with no artifacts is an error — silently merging
// nothing would mask a mistyped path.
std::vector<std::string> expand_merge_inputs(const std::vector<std::string>& inputs) {
  std::vector<std::string> paths;
  for (const std::string& input : inputs) {
    std::error_code ec;
    if (!std::filesystem::is_directory(input, ec)) {
      paths.push_back(input);
      continue;
    }
    std::vector<std::string> found;
    for (const auto& entry : std::filesystem::directory_iterator(input, ec)) {
      if (entry.is_regular_file() && looks_like_shard_artifact(entry.path().filename().string())) {
        found.push_back(entry.path().string());
      }
    }
    support::check(!ec, "cannot scan directory '" + input + "'");
    support::check(!found.empty(),
                   "no shard artifacts (*.shard.json) found in directory '" + input + "'");
    std::sort(found.begin(), found.end());
    paths.insert(paths.end(), found.begin(), found.end());
  }
  return paths;
}

int cmd_merge(const Options& options) {
  if (options.inputs.empty()) {
    std::fprintf(stderr, "cicmon: merge needs at least one shard artifact path or directory\n");
    usage(2);
  }
  const std::vector<std::string> inputs = expand_merge_inputs(options.inputs);
  std::vector<exp::ShardArtifact> artifacts;
  artifacts.reserve(inputs.size());
  for (const std::string& path : inputs) {
    artifacts.push_back(exp::load_shard_artifact(path));
  }
  const std::string sweep = artifacts.front().sweep;
  const exp::SweepParams params = artifacts.front().params;
  const std::vector<exp::CellResult> cells = exp::merge_artifacts(std::move(artifacts));
  return render_cells(sweep, params, cells, options, /*bench_total_ms=*/-1.0);
}

// The worker argv suffix for one dispatched sweep: every flag whose
// `sweeps` mask covers it, with its canonical value (see Flag).
std::vector<std::string> worker_sweep_flags(std::string_view sweep, const Options& options) {
  const auto bit = 1U << (std::find(kSweeps.begin(), kSweeps.end(), sweep) - kSweeps.begin());
  std::vector<std::string> flags;
  for (const Flag& flag : kFlagTable) {
    if ((flag.sweeps & bit) == 0) continue;
    std::string value = flag.canonical(options);
    if (!value.empty()) flags.insert(flags.end(), {std::string(flag.name), std::move(value)});
  }
  return flags;
}

// Validates argv[2] as a dispatchable sweep for `cicmon <what> <sweep> ...`
// (shared by dispatch and worker, which parse their sweep flags at argv[3]).
std::string_view parse_sweep_subcommand(int argc, char** argv, const char* what) {
  if (argc < 3 || argv[2][0] == '-') {
    std::fprintf(stderr, "cicmon: %s needs a sweep subcommand (table1|fig6|blocks|bench|campaign)\n",
                 what);
    usage(2);
  }
  const std::string_view sub = argv[2];
  if (std::find(kSweeps.begin(), kSweeps.end(), sub) == kSweeps.end()) {
    std::fprintf(stderr, "cicmon: cannot %s '%s'%s\n", what, argv[2],
                 did_you_mean(sub, kSweeps).c_str());
    usage(2);
  }
  return sub;
}

// `cicmon worker <sweep> ...`: the persistent-session server. Sends a light
// hello (sweep name + golden key), then derives the sweep once — from a
// golden blob the orchestrator ships, from the --golden-cache, or the hard
// way — and serves shard assignments over stdin/stdout until the
// orchestrator shuts it down. stdout belongs to the wire protocol, so this
// subcommand never renders anything.
int cmd_worker(int argc, char** argv) {
  const std::string_view sub = parse_sweep_subcommand(argc, argv, "serve");
  const Options options = parse_options(argc, argv, /*allow_positional=*/false, /*first=*/3);
  if (sharded_mode(options) || !options.json_path.empty()) {
    std::fprintf(stderr,
                 "cicmon: worker serves shards over its stdin — --shard/--out/--json do not "
                 "apply (use the plain sweep subcommand for a one-shot shard)\n");
    return 2;
  }
  SweepBundle bundle;  // outlives serve_worker: the campaign spec borrows it
  dist::WorkerSweepSource source;
  source.sweep = std::string(sub);
  if (sub == "campaign") source.golden_key = campaign_golden_key(options);
  source.derive = [&bundle, &options, sub](const std::string* shipped,
                                           std::string* golden_source) {
    bundle = make_sweep(sub, options, shipped);
    if (golden_source != nullptr) *golden_source = bundle.golden_source;
    return bundle.spec;
  };
  return dist::serve_worker(source, options.jobs);
}

// Prints what `cicmon dispatch` *would* launch — the resolved shard grid,
// session mode, and worker command lines — without spawning anything. The
// debugging aid for ssh/cluster --transport templates: the exact /bin/sh
// command per shard is shown after placeholder expansion.
int print_dispatch_plan(const exp::SweepSpec& spec, const dist::WorkerCommand& base,
                        const dist::Transport& transport, const dist::DispatchConfig& config,
                        const std::string& transport_text) {
  const dist::DispatchPlan plan = dist::plan_dispatch(spec, base, transport, config);
  std::printf("dispatch plan: %s (%zu cells) over %u shards, %u workers, %u jobs/worker\n",
              spec.sweep.c_str(), spec.cells, plan.shards, plan.workers, plan.jobs);
  std::string mode = "exec per shard, local transport";
  if (plan.persistent) {
    mode = transport_text.empty()
               ? "persistent worker sessions (local pipes)"
               : "persistent worker sessions (template transport '" + transport_text + "')";
    if (config.golden != nullptr && !config.golden->empty()) {
      mode += ", golden state shipped (" + std::to_string(config.golden->bytes) + " bytes, " +
              std::to_string(config.golden->frames.size()) + " chunk(s))";
    }
  } else if (!transport_text.empty()) {
    mode = "exec per shard, template transport '" + transport_text + "'";
  }
  std::printf("mode: %s\n", mode.c_str());
  std::printf("artifact dir: %s\n", config.artifact_dir.c_str());
  std::printf("retries: %u, timeout: %gs, shutdown grace: %gs\n", config.retries,
              config.timeout_seconds, config.shutdown_grace);
  if (plan.persistent) {
    std::printf("session command (x%u): %s\n", plan.workers,
                support::shell_join(dist::session_worker_argv(base, plan.jobs)).c_str());
  }
  for (unsigned i = 1; i <= plan.shards; ++i) {
    const exp::Shard shard{i, plan.shards};
    const dist::WorkItem item{shard,
                              dist::shard_artifact_path(config.artifact_dir, spec.sweep, shard),
                              0};
    if (plan.persistent) {
      std::printf("shard %u/%u -> %s\n", i, plan.shards, item.artifact_path.c_str());
    } else {
      const std::vector<std::string> argv =
          dist::exec_worker_argv(base, plan.jobs, item, config.force);
      const std::string command =
          transport_text.empty()
              ? support::shell_join(argv)
              : dist::CommandTemplateTransport::expand(transport_text,
                                                       dist::WorkerCommand{argv, {}}, item);
      std::printf("shard %u/%u -> %s\n  %s\n", i, plan.shards, item.artifact_path.c_str(),
                  command.c_str());
    }
  }
  return 0;
}

// `cicmon dispatch <sweep> ...`: scale the sweep out over worker processes
// via src/dist/, then merge and render through the same funnel as the direct
// and `merge` paths — stdout is byte-identical to the direct invocation.
int cmd_dispatch(int argc, char** argv) {
  const std::string_view sub = parse_sweep_subcommand(argc, argv, "dispatch");
  const Options options = parse_options(argc, argv, /*allow_positional=*/false, /*first=*/3);
  if (sharded_mode(options)) {
    std::fprintf(stderr,
                 "cicmon: --shard/--out cannot be combined with dispatch — the orchestrator "
                 "shards for you (use --shards N and --dir DIR)\n");
    return 2;
  }
  if (!options.json_path.empty() && sub != "campaign" && sub != "bench") {
    std::fprintf(stderr, "cicmon: --json applies to dispatched bench and campaign only\n");
    return 2;
  }

  const SweepBundle bundle = make_sweep(sub, options);

  dist::WorkerCommand base;
  base.argv = {support::current_executable(argv[0]), std::string(sub)};
  const std::vector<std::string> flags = worker_sweep_flags(sub, options);
  base.argv.insert(base.argv.end(), flags.begin(), flags.end());
  // Persistent sessions are the default; plan_dispatch falls back to
  // exec-per-shard when the transport cannot forward stdio to the worker
  // (templates with per-item placeholders) or on an explicit
  // --exec-per-shard.
  if (!options.exec_per_shard) {
    base.session_argv = {base.argv.front(), "worker", std::string(sub)};
    base.session_argv.insert(base.session_argv.end(), flags.begin(), flags.end());
  }

  dist::DispatchConfig config;
  config.workers = options.workers;
  config.shards = options.dispatch_shards;
  config.retries = options.retries;
  config.jobs_per_worker = options.jobs;
  config.timeout_seconds = options.timeout;
  config.artifact_dir = options.dir.empty() ? "cicmon-dispatch" : options.dir;
  config.force = options.force;
  config.progress = !options.quiet;
  if (options.ship_golden && bundle.keepalive != nullptr && !bundle.golden_key.empty()) {
    obs::Span encode_span("dispatch.golden_encode");
    config.golden = std::make_shared<dist::GoldenShipment>(dist::make_golden_shipment(
        bundle.golden_key,
        fault::encode_golden(bundle.keepalive->export_golden(), bundle.golden_key)));
    encode_span.args().add("bytes", config.golden->bytes);
  }

  std::unique_ptr<dist::Transport> transport;
  if (options.transport.empty()) {
    transport = std::make_unique<dist::LocalProcessTransport>();
  } else {
    transport = std::make_unique<dist::CommandTemplateTransport>(options.transport);
  }

  if (options.dry_run) {
    return print_dispatch_plan(bundle.spec, base, *transport, config, options.transport);
  }

  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t run_t_us = obs::trace_now_us();
  const dist::DispatchResult result = dist::dispatch_sweep(bundle.spec, base, *transport, config);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  if (obs::trace_enabled()) {
    obs::TraceArgs args;
    args.add("sweep", bundle.spec.sweep);
    args.add("shards", static_cast<std::uint64_t>(result.shard_count));
    args.add("workers", static_cast<std::uint64_t>(result.workers_planned));
    args.add("mode", result.persistent ? "sessions" : "exec");
    obs::trace_span("dispatch.run", run_t_us, args);
  }
  const char* mode = result.persistent ? "persistent sessions" : "exec per shard";
  if (!result.ok) {
    std::fprintf(stderr,
                 "cicmon: dispatch failed: %zu shard(s) exhausted their attempt budget (%u) "
                 "via %s (%s transport); completed shards keep their artifacts in '%s' for "
                 "resume\n",
                 result.failures.size(), options.retries + 1, mode, transport->describe().c_str(),
                 config.artifact_dir.c_str());
    for (const dist::WorkFailure& failure : result.failures) {
      std::fprintf(stderr, "cicmon:   shard %u/%u: %s\n", failure.item.shard.index,
                   failure.item.shard.count, failure.reason.c_str());
    }
    return 1;
  }
  std::string golden_note;
  if (result.persistent &&
      result.golden_shipped + result.golden_cached + result.golden_derived > 0) {
    golden_note = ", golden " + std::to_string(result.golden_shipped) + " shipped/" +
                  std::to_string(result.golden_cached) + " cached/" +
                  std::to_string(result.golden_derived) + " derived";
  }
  std::fprintf(stderr,
               "dispatch: %s over %u shards via %s (%s transport): %zu reused, %zu launched, "
               "%zu retried%s\n",
               bundle.spec.sweep.c_str(), result.shard_count, mode,
               transport->describe().c_str(), result.reused, result.launched, result.retried,
               golden_note.c_str());
  if (result.elapsed_ms > 0 && result.workers_planned > 0 && result.busy_ms > 0) {
    // Worker utilization: summed assignment run wall over the fleet's total
    // slot time; plus how each shard's life split between waiting in the
    // queue and running on a worker.
    const double slot_ms =
        static_cast<double>(result.elapsed_ms) * static_cast<double>(result.workers_planned);
    std::fprintf(stderr,
                 "dispatch: workers %s utilized (%llu ms run vs %llu ms queue-wait across "
                 "%u slots, %llu ms elapsed)\n",
                 support::Table::fmt_pct(static_cast<double>(result.busy_ms) / slot_ms).c_str(),
                 static_cast<unsigned long long>(result.busy_ms),
                 static_cast<unsigned long long>(result.queue_wait_ms),
                 result.workers_planned,
                 static_cast<unsigned long long>(result.elapsed_ms));
  }
  const int code = render_cells(bundle.spec.sweep, bundle.spec.params, result.cells, options,
                                /*bench_total_ms=*/-1.0);
  if (code == 0 && sub == "campaign" && !options.json_path.empty()) {
    return write_campaign_json(options.json_path, options, *bundle.keepalive, wall_ms, &result);
  }
  return code;
}

int cmd_workloads() {
  support::Table table({"workload", "description"});
  for (const workloads::WorkloadInfo& info : workloads::all_workloads()) {
    table.add_row({std::string(info.name), std::string(info.description)});
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}

int run_command(int argc, char** argv, std::string_view command) {
  // dispatch/worker re-parse with their sweep subcommand at argv[2].
  if (command == "dispatch") return cmd_dispatch(argc, argv);
  if (command == "worker") return cmd_worker(argc, argv);
  const Options options = parse_options(
      argc, argv, /*allow_positional=*/command == "merge" || command == "report");
  if (command == "campaign") return cmd_campaign(options);
  if (std::find(kSweeps.begin(), kSweeps.end(), command) != kSweeps.end()) {
    return run_sweep_command(make_sweep(command, options).spec, options);
  }
  if (command == "merge") return cmd_merge(options);
  if (command == "report") return cmd_report(options);
  if (command == "workloads") return cmd_workloads();
  if (command == "help" || command == "--help" || command == "-h") usage(0);
  std::fprintf(stderr, "cicmon: unknown command '%s'%s\n", argv[1],
               did_you_mean(command, kCommands).c_str());
  usage(2);
}

// The --metrics summary, emitted after the command returns (every parallel
// region has joined by then, so the snapshot is complete). Destination is
// stderr or the --metrics-out sidecar — never stdout.
int emit_metrics_summary() {
  if (g_metrics_mode.empty()) return 0;
  const obs::MetricsSnapshot snap = obs::snapshot();
  const std::string text = g_metrics_mode == "json"
                               ? obs::render_metrics_json(snap, g_command)
                               : obs::render_metrics_table(snap);
  if (!g_metrics_out.empty()) return write_text_file(g_metrics_out, text, "metrics");
  std::fputs(text.c_str(), stderr);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(2);
  const std::string_view command = argv[1];
  g_command = command;
  int code = 0;
  try {
    code = run_command(argc, argv, command);
  } catch (const cicmon::support::CicError& error) {
    std::fprintf(stderr, "cicmon: %s\n", error.what());
    code = 1;
  }
  // Telemetry epilogue: the metrics summary and the trace footer still land
  // (and report what happened) when the command failed.
  const int telemetry_code = emit_metrics_summary();
  obs::close_trace();
  if (code == 0 && telemetry_code != 0) code = telemetry_code;
  return code;
}
