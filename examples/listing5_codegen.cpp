// Regenerate the paper's Listing 5: compile Listing 4 (verbatim), run the
// base meta-state conversion (8 meta states: ms_0 .. ms_2_6_9 in the
// paper's numbering), and emit the MasPar-MPL-style SIMD coding with
// global-or + customized-hash multiway branches (§3.2.3, [Die92a]).
//
// Build & run:  ./build/examples/listing5_codegen
#include <cstdio>

#include "msc/codegen/program.hpp"
#include "msc/driver/pipeline.hpp"
#include "msc/pass/pass.hpp"
#include "msc/workload/kernels.hpp"

using namespace msc;

int main() {
  const workload::Kernel& kernel = workload::listing4();
  std::printf("== Listing 4 (verbatim from the paper) ==\n%s\n",
              kernel.source.c_str());

  driver::Compiled compiled = driver::compile(kernel.source);
  ir::CostModel cost;
  auto conv = pass::run_conversion_pipeline(
      compiled.graph, cost, {"convert", "subsume", "straighten"}, {});
  std::printf("meta states: %zu (paper Listing 5 has 8)\n\n",
              conv.automaton.num_states());

  codegen::SimdProgram prog =
      codegen::generate(conv.automaton, conv.graph, cost, {});

  std::printf("== Customized hash functions chosen per multiway branch ==\n");
  for (const codegen::MetaCode& mc : prog.states) {
    if (mc.trans != codegen::TransKind::Multiway) continue;
    std::printf("  %-14s %zu cases, table[%zu], %s\n",
                mc.members.to_string().c_str(), mc.case_targets.size(),
                mc.sw.table_size(), mc.sw.fn.render("apc").c_str());
  }

  std::printf("\n== MPL-style SIMD coding (cf. paper Listing 5) ==\n%s",
              codegen::to_mpl(prog, conv.graph).c_str());
  return 0;
}
