// Reproduces Table 4: labelling sizes, construction times, label entry
// counts, and tree heights for STL, HC2L, and the H2H family (IncH2H /
// DTDHL share the same index; they differ in maintenance and auxiliary
// data, so "IncH2H" memory includes the full DCH support machinery while
// "DTDHL" counts its lighter auxiliary state).
//
// Expected shape (paper): STL labels smallest, HC2L next (no shortcuts in
// STL -> smaller cuts), IncH2H by far the largest; STL tree height about
// half of H2H's; STL construction faster than HC2L.
//
// The "STL [s]" column builds on one thread, like the HC2L and H2H
// builds beside it; "STL all cores [s]" is the default build, which
// runs the bisection and the label columns on every core. The "STL
// construction split" table breaks both STL builds into the stable tree
// hierarchy and the labelling pass (BuildInfo); its "labelling speed-up"
// is the serial labelling time over the all-cores one, so the serial
// cost and the parallel scaling of the label construction are both on
// record.
#include <string>
#include <utility>

#include "baselines/h2h.h"
#include "baselines/hc2l.h"
#include "bench/bench_common.h"
#include "core/stl_index.h"
#include "util/table.h"

using namespace stl;

int main() {
  auto cfg = bench::MakeConfig();
  bench::PrintHeader("Table 4 — labelling sizes and construction times", cfg);
  TablePrinter size_table({"Network", "STL", "HC2L", "IncH2H", "DTDHL"});
  TablePrinter time_table({"Network", "STL [s]", "STL all cores [s]",
                           "HC2L [s]", "H2H [s]"});
  TablePrinter split_table({"Network", "STL build", "hierarchy_seconds",
                            "labelling_seconds", "labelling speed-up",
                            "total_seconds"});
  TablePrinter entry_table(
      {"Network", "STL entries", "HC2L entries", "IncH2H entries",
       "STL height", "IncH2H height"});
  for (const auto& spec : cfg.datasets) {
    Graph g_stl = LoadDataset(spec);
    Graph g_h2h = g_stl;
    Graph g_stl_all = g_stl;
    const Graph g_ref = g_stl;

    HierarchyOptions serial;
    serial.num_threads = 1;
    StlIndex stl_idx = StlIndex::Build(&g_stl, serial);
    const HierarchyOptions all_cores;
    const BuildInfo all_info =
        StlIndex::Build(&g_stl_all, all_cores).build_info();
    Hc2lIndex hc2l = Hc2lIndex::Build(g_ref, HierarchyOptions{});
    H2hIndex h2h = H2hIndex::Build(&g_h2h);

    size_table.AddRow(
        {spec.name, TablePrinter::Bytes(stl_idx.MemoryBytes()),
         TablePrinter::Bytes(hc2l.MemoryBytes()),
         TablePrinter::Bytes(h2h.MemoryBytes(H2hIndex::Maintenance::kIncH2H)),
         TablePrinter::Bytes(
             h2h.MemoryBytes(H2hIndex::Maintenance::kDTDHL))});
    time_table.AddRow(
        {spec.name, TablePrinter::Fixed(stl_idx.build_info().total_seconds, 2),
         TablePrinter::Fixed(all_info.total_seconds, 2),
         TablePrinter::Fixed(hc2l.build_seconds(), 2),
         TablePrinter::Fixed(h2h.build_seconds(), 2)});
    const std::pair<std::string, BuildInfo> builds[] = {
        {"1 thread", stl_idx.build_info()},
        {"all cores (" + std::to_string(all_cores.num_threads) + ")",
         all_info}};
    for (const auto& [build, info] : builds) {
      const double serial_labelling =
          stl_idx.build_info().labelling_seconds;
      split_table.AddRow(
          {spec.name, build, TablePrinter::Fixed(info.hierarchy_seconds, 3),
           TablePrinter::Fixed(info.labelling_seconds, 3),
           TablePrinter::Fixed(serial_labelling / info.labelling_seconds, 2) +
               "x",
           TablePrinter::Fixed(info.total_seconds, 3)});
    }
    entry_table.AddRow(
        {spec.name,
         TablePrinter::Count(stl_idx.hierarchy().TotalLabelEntries()),
         TablePrinter::Count(hc2l.TotalLabelEntries()),
         TablePrinter::Count(h2h.TotalLabelEntries()),
         std::to_string(stl_idx.hierarchy().MaxLabelSize()),
         std::to_string(h2h.TreeHeight())});
  }
  std::printf("Labelling Size\n");
  size_table.Print();
  std::printf("\nConstruction Time\n");
  time_table.Print();
  std::printf("\nSTL construction split\n");
  split_table.Print();
  std::printf("\n# Label Entries / Tree Height\n");
  entry_table.Print();
  return 0;
}
