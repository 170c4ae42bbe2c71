// Ablation studies for the index's design choices (the experiment
// index is under "Paper reproduction notes" in docs/ARCHITECTURE.md):
//
//  1. Balance threshold beta (Definition 4.1): smaller beta permits more
//     skewed cuts (deeper trees, potentially smaller separators); the
//     paper fixes beta = 0.2 — this sweep shows why the choice is benign.
//  2. Separator multi-start count: how much the BFS-halving heuristic
//     gains from extra attempts.
//  3. Maintenance engine work counters: queue pops / label writes per
//     update for Pareto vs Label Search — the mechanism behind Table 3
//     (Pareto merges per-ancestor searches into two traversals).
#include "bench/bench_common.h"
#include "core/stl_index.h"
#include "util/table.h"
#include "workload/update_workload.h"

using namespace stl;

int main() {
  auto cfg = bench::MakeConfig();
  bench::PrintHeader("Ablations — beta, multi-start, search work", cfg);
  const auto& spec = cfg.datasets.back();

  {
    std::printf("(%s) beta sweep\n", spec.name.c_str());
    TablePrinter table({"beta", "depth", "height", "entries", "build [s]",
                        "query [us]"});
    for (double beta : {0.05, 0.1, 0.2, 0.3, 0.4, 0.5}) {
      Graph g = LoadDataset(spec);
      HierarchyOptions opt;
      opt.beta = beta;
      StlIndex idx = StlIndex::Build(&g, opt);
      auto pairs = RandomQueryPairs(g, 50000, 99);
      double us = bench::TimeQueriesMicros(
          pairs, [&](Vertex s, Vertex t) { return idx.Query(s, t); });
      table.AddRow({TablePrinter::Fixed(beta, 2),
                    std::to_string(idx.hierarchy().Depth()),
                    std::to_string(idx.hierarchy().MaxLabelSize()),
                    TablePrinter::Count(idx.hierarchy().TotalLabelEntries()),
                    TablePrinter::Fixed(idx.build_info().total_seconds, 2),
                    TablePrinter::Fixed(us, 3)});
    }
    table.Print();
  }

  {
    std::printf("\n(%s) separator multi-start sweep\n", spec.name.c_str());
    TablePrinter table({"starts", "height", "entries", "build [s]"});
    for (int starts : {1, 2, 3, 5, 8}) {
      Graph g = LoadDataset(spec);
      HierarchyOptions opt;
      opt.num_starts = starts;
      StlIndex idx = StlIndex::Build(&g, opt);
      table.AddRow({std::to_string(starts),
                    std::to_string(idx.hierarchy().MaxLabelSize()),
                    TablePrinter::Count(idx.hierarchy().TotalLabelEntries()),
                    TablePrinter::Fixed(idx.build_info().total_seconds, 2)});
    }
    table.Print();
  }

  {
    std::printf("\n(%s) maintenance work per update (x2 then restore)\n",
                spec.name.c_str());
    TablePrinter table(
        {"engine", "pops/upd", "writes/upd", "ms/upd"});
    auto edges = SampleDistinctEdges(LoadDataset(spec), cfg.batch_size,
                                     spec.seed * 7);
    for (auto strat : {MaintenanceStrategy::kParetoSearch,
                       MaintenanceStrategy::kLabelSearch}) {
      Graph g = LoadDataset(spec);
      StlIndex idx = StlIndex::Build(&g, HierarchyOptions{});
      UpdateBatch inc = MakeIncreaseBatch(g, edges, 2.0);
      UpdateBatch dec = MakeRestoreBatch(inc);
      Timer t;
      idx.ApplyBatch(inc, strat);
      idx.ApplyBatch(dec, strat);
      double ms = t.ElapsedMillis() / (2.0 * inc.size());
      MaintenanceStats st = idx.MaintenanceStatsTotal();
      table.AddRow(
          {strat == MaintenanceStrategy::kParetoSearch ? "STL-P" : "STL-L",
           TablePrinter::Fixed(
               static_cast<double>(st.queue_pops) / (2.0 * inc.size()), 1),
           TablePrinter::Fixed(
               static_cast<double>(st.label_writes) / (2.0 * inc.size()), 1),
           TablePrinter::Fixed(ms, 3)});
    }
    table.Print();
  }
  return 0;
}
