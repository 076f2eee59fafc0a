// Reproduces §5.2.1 (b): SGE vs Condor on the same 600-member workload.
//
// Paper: "Timings under Condor were between 10−20% slower. Essentially
// the difference could be seen in the time it took for the queuing system
// to reassign a new job to a node that just finished one."
//
// Makespans and the per-job negotiation waits are read from the telemetry
// sessions recorded by the instrumented scheduler; the table lands in
// results/bench_scheduler_compare.csv and the sessions in
// results/bench_scheduler_compare.telemetry.json.
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

  auto run_with = [](mtc::SchedulerParams params, telemetry::Sink& sink) {
    EsseWorkflowConfig cfg;
    cfg.shape = mtc::EsseJobShape{};
    cfg.staging = mtc::InputStaging::kPrestageLocal;
    cfg.initial_members = 600;
    cfg.converge_at = 600;
    cfg.max_members = 600;  // the paper ran a fixed 600-member forecast
    cfg.svd_stride = 50;
    cfg.pool_headroom = 1.0;  // the paper ran exactly 600 members
    cfg.master_node = 117;
    cfg.sink = &sink;
    mtc::Simulator sim;
    mtc::ClusterScheduler sched(sim, mtc::make_home_cluster(15), params);
    run_parallel_esse(sim, sched, cfg);
  };

  telemetry::Sink sge("sge");
  run_with(mtc::sge_params(), sge);
  const double sge_makespan = sge.metrics().value("workflow.makespan_s");

  Table t("sec 5.2.1: SGE vs Condor, 600 members, prestaged inputs");
  t.set_header({"scheduler", "negotiation (s)", "makespan (min)",
                "vs SGE", "mean nego wait (s)", "paper"});
  t.add_row({"SGE", "event-driven", Table::num(sge_makespan / 60.0, 1),
             "1.000x", "-", "baseline"});

  std::vector<std::unique_ptr<telemetry::Sink>> condor_sinks;
  for (double interval : {120.0, 240.0, 360.0}) {
    auto sink = std::make_unique<telemetry::Sink>(
        "condor-" + Table::num(interval, 0));
    run_with(mtc::condor_params(interval), *sink);
    const telemetry::MetricsRegistry& m = sink->metrics();
    t.add_row({"Condor", Table::num(interval, 0),
               Table::num(m.value("workflow.makespan_s") / 60.0, 1),
               Table::num(m.value("workflow.makespan_s") / sge_makespan, 3) +
                   "x",
               Table::num(m.histogram_at("sched.negotiation_wait_s").mean(),
                          1),
               "1.10-1.20x"});
    condor_sinks.push_back(std::move(sink));
  }
  t.print(std::cout);
  t.write_csv("results/bench_scheduler_compare.csv");

  std::vector<const telemetry::Sink*> sessions{&sge};
  for (const auto& s : condor_sinks) sessions.push_back(s.get());
  telemetry::write_sessions_json(
      "results/bench_scheduler_compare.telemetry.json", sessions);
  std::cout << "\ntelemetry sessions: results/bench_scheduler_compare"
               ".telemetry.json\n";
  return 0;
}
