package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

/** Self-test of the traced replay at tiny scale, so that a refactor which
  * breaks the replay fails here rather than in a benchmark run. Run with
  * `sbt test` in perfbench/.
  */
class TracedSpec extends AnyFunSuite {

  Workloads.tiny.foreach { w =>
    test(s"${w.name}: traced replay matches the entry point and its counters add up") {
      val out = TracedBench.execute(w, Bench.Options(w.name, 7L, 0.2, trace = true), "target/perfbench-test")
      assert(out.problems.isEmpty)
      assert(out.correct)
      assert(out.metrics.map(_._1) == BenchSpec.declared("per_layer"))
      val m = out.metrics.map { case (k, (v, _)) => k -> v }.toMap
      assert(m("trace.replay_match") == 1.0)
      assert(m("enumeration.children.calls") > 0 && m("graph.ismin.calls") > 0)
      if (w.method == "ted") assert(m("core.prm.checks") > 0)
      if (w.distPartitions > 0) assert(m("dist.candidates") > 0 && m("iso.coverset.calls") > 0)
    }
  }
}
