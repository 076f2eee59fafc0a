// Reproduces Figs. 3 vs 4 (§4/§4.1): the serial ESSE workflow against
// the MTC-parallel redesign, over a range of convergence points.
//
// The serial variant pays three barriers (forecast loop → diff loop →
// SVD) per growth round; the parallel variant pipelines the differ and
// SVD against the running pool and keeps headroom so the pipeline never
// drains. The win grows when convergence needs pool growth.
//
// All reported numbers come from the telemetry sessions recorded by the
// drivers; the table lands in results/bench_serial_vs_parallel.csv and
// the sessions (including the workflow.svd_run/converged event streams)
// in results/bench_serial_vs_parallel.telemetry.json.
#include <iostream>
#include <memory>
#include <vector>

#include "common/table.hpp"
#include "common/telemetry.hpp"
#include "mtc/cluster.hpp"
#include "mtc/scheduler.hpp"
#include "mtc/sim.hpp"
#include "workflow/esse_workflow_sim.hpp"

int main() {
  using namespace essex;
  using namespace essex::workflow;

  auto run = [](bool parallel, std::size_t initial, std::size_t converge,
                telemetry::Sink& sink) {
    EsseWorkflowConfig cfg;
    cfg.shape = mtc::EsseJobShape{};
    cfg.staging = mtc::InputStaging::kPrestageLocal;
    cfg.initial_members = initial;
    cfg.converge_at = converge;
    cfg.max_members = 1200;
    cfg.svd_stride = 50;
    cfg.pool_headroom = 1.15;
    cfg.master_node = 117;
    cfg.sink = &sink;
    mtc::Simulator sim;
    mtc::ClusterScheduler sched(sim, mtc::make_home_cluster(15),
                                mtc::sge_params());
    if (parallel)
      run_parallel_esse(sim, sched, cfg);
    else
      run_serial_esse(sim, sched, cfg);
  };

  Table t("Figs 3 vs 4: serial vs MTC-parallel ESSE workflow");
  t.set_header({"N0", "converges at", "serial (min)", "parallel (min)",
                "speedup", "serial svd", "parallel svd"});
  struct Case {
    std::size_t initial, converge;
  };
  std::vector<std::unique_ptr<telemetry::Sink>> sinks;
  for (const Case c : {Case{300, 300}, Case{300, 600}, Case{300, 900},
                       Case{600, 600}, Case{600, 1200}}) {
    const std::string tag =
        std::to_string(c.initial) + "-" + std::to_string(c.converge);
    auto serial = std::make_unique<telemetry::Sink>("serial-" + tag);
    auto parallel = std::make_unique<telemetry::Sink>("parallel-" + tag);
    run(false, c.initial, c.converge, *serial);
    run(true, c.initial, c.converge, *parallel);
    const double s_makespan =
        serial->metrics().value("workflow.makespan_s");
    const double p_makespan =
        parallel->metrics().value("workflow.makespan_s");
    t.add_row({std::to_string(c.initial), std::to_string(c.converge),
               Table::num(s_makespan / 60.0, 1),
               Table::num(p_makespan / 60.0, 1),
               Table::num(s_makespan / p_makespan, 2) + "x",
               Table::num(serial->metrics().value("workflow.svd_runs"), 0),
               Table::num(parallel->metrics().value("workflow.svd_runs"),
                          0)});
    sinks.push_back(std::move(serial));
    sinks.push_back(std::move(parallel));
  }
  t.print(std::cout);
  t.write_csv("results/bench_serial_vs_parallel.csv");

  std::vector<const telemetry::Sink*> sessions;
  for (const auto& s : sinks) sessions.push_back(s.get());
  telemetry::write_sessions_json(
      "results/bench_serial_vs_parallel.telemetry.json", sessions);
  std::cout << "\nshape: parallel ≥ serial everywhere; the gap widens "
               "when convergence requires growing the pool (the serial "
               "variant re-enters its barriers per Fig. 3's loop-back).\n";
  std::cout << "telemetry sessions: results/bench_serial_vs_parallel"
               ".telemetry.json\n";
  return 0;
}
