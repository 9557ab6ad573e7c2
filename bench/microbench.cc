// google-benchmark microbenchmarks of the simulator's own hot paths —
// simulation throughput (instructions/second), golden-run recording, HASHFU
// steps, and IHT lookups and fills — so regressions in the substrate itself
// are visible.
#include <benchmark/benchmark.h>

#include "cic/iht.h"
#include "cpu/cpu.h"
#include "cpu/snapshot.h"
#include "fault/golden.h"
#include "hash/hash_unit.h"
#include "workloads/workloads.h"

namespace {

using namespace cicmon;

void BM_SimulateBitcount(benchmark::State& state) {
  const bool monitoring = state.range(0) != 0;
  const casm_::Image image = workloads::build_workload("bitcount", {0.2, 42});
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    cpu::CpuConfig config;
    config.monitoring = monitoring;
    config.cic.iht_entries = 16;
    cpu::Cpu cpu(config, image);
    const cpu::RunResult r = cpu.run();
    instructions += r.instructions;
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
  state.SetLabel(monitoring ? "monitored" : "baseline");
}
BENCHMARK(BM_SimulateBitcount)->Arg(0)->Arg(1);

// A fault campaign's set-up: recording the checkpointed golden run (auto
// snapshot schedule) on the default engine, from a preloaded image. Arg 0 is
// dijkstra on CIC16 (campaign-bus's golden), arg 1 stringsearch on the
// baseline machine (a run long enough for the schedule to thin).
void BM_GoldenRecord(benchmark::State& state) {
  const bool dijkstra = state.range(0) == 0;
  const casm_::Image image =
      workloads::build_workload(dijkstra ? "dijkstra" : "stringsearch", {1.0, 42});
  cpu::CpuConfig config;
  config.monitoring = dijkstra;
  config.cic.iht_entries = 16;
  const cpu::LoadedImage loaded = cpu::preload_image(config, image);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    const fault::CheckpointedGolden golden(config, image, loaded, 0);
    instructions += golden.result().instructions;
    benchmark::DoNotOptimize(golden.snapshot_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
  state.SetLabel(dijkstra ? "dijkstra CIC16" : "stringsearch baseline");
}
BENCHMARK(BM_GoldenRecord)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_HashStep(benchmark::State& state) {
  const auto kind = static_cast<hash::HashKind>(state.range(0));
  const auto unit = hash::make_hash_unit(kind, 0x5EED);
  std::uint32_t value = 0x12345678;
  for (auto _ : state) {
    value = unit->step(value, value * 2654435761U);
    benchmark::DoNotOptimize(value);
  }
  state.SetLabel(std::string(hash::hash_kind_name(kind)));
}
BENCHMARK(BM_HashStep)
    ->Arg(static_cast<int>(hash::HashKind::kXor))
    ->Arg(static_cast<int>(hash::HashKind::kRotXor))
    ->Arg(static_cast<int>(hash::HashKind::kCrc32));

// IHT lookups at the evaluated capacities, as the monitor presents them:
// (start, end) of word-aligned blocks one 64-byte stride apart. Hits probe
// resident ranges round-robin; misses probe absent ones; thrash walks a
// working set twice the capacity and refills every miss (the OS handler's
// pattern on a table that is too small). The range index makes hits and
// misses independent of capacity; thrash adds a fill per miss, whose victim
// scan stays linear in capacity.
constexpr std::uint32_t block_start(std::uint32_t i) { return 0x00400000 + i * 0x40; }

cic::Iht full_table(unsigned entries) {
  cic::Iht iht(entries, cic::ReplacePolicy::kLru);
  for (std::uint32_t i = 0; i < entries; ++i) iht.fill(block_start(i), block_start(i) + 12, i);
  return iht;
}

void BM_IhtLookupHit(benchmark::State& state) {
  const auto entries = static_cast<std::uint32_t>(state.range(0));
  cic::Iht iht = full_table(entries);
  std::uint32_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(iht.lookup(block_start(key), block_start(key) + 12, key));
    key = key + 1 == entries ? 0 : key + 1;
  }
}
BENCHMARK(BM_IhtLookupHit)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_IhtLookupMiss(benchmark::State& state) {
  const auto entries = static_cast<std::uint32_t>(state.range(0));
  cic::Iht iht = full_table(entries);
  std::uint32_t key = 0;
  for (auto _ : state) {
    const std::uint32_t start = block_start(entries + key);  // never filled
    benchmark::DoNotOptimize(iht.lookup(start, start + 12, key));
    key = key + 1 == entries ? 0 : key + 1;
  }
}
BENCHMARK(BM_IhtLookupMiss)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_IhtLookupThrash(benchmark::State& state) {
  const auto entries = static_cast<std::uint32_t>(state.range(0));
  cic::Iht iht = full_table(entries);
  std::uint32_t key = 0;
  for (auto _ : state) {
    const std::uint32_t start = block_start(key);
    if (!iht.lookup(start, start + 12, key).found) iht.fill(start, start + 12, key);
    key = key + 1 == 2 * entries ? 0 : key + 1;
  }
}
BENCHMARK(BM_IhtLookupThrash)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// Iht::fill into a full LRU table: every fill evicts (the victim scan is
// linear in capacity; fills only happen on the OS miss path).
void BM_IhtFillLru(benchmark::State& state) {
  const auto entries = static_cast<std::uint32_t>(state.range(0));
  cic::Iht iht = full_table(entries);
  std::uint32_t key = entries;
  for (auto _ : state) {
    iht.fill(block_start(key), block_start(key) + 12, key);
    ++key;
  }
}
BENCHMARK(BM_IhtFillLru)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
