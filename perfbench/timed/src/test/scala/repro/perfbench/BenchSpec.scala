package repro.perfbench

import java.io.File
import scala.jdk.CollectionConverters._
import com.fasterxml.jackson.databind.ObjectMapper
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Pattern, Ted}
import repro.data.MoleculeGen

/** Self-test of the timed path at tiny scale: every workload, the
  * output check and the result line. Run with `sbt test` in perfbench/.
  */
class BenchSpec extends AnyFunSuite {

  private val declared = BenchSpec.declared

  test("workloads have the declared names") {
    assert(Workloads.tiny.map(_.name) == declared("workloads"))
    assert(Workloads.full.map(_.name) == declared("workloads"))
  }

  Workloads.tiny.foreach { w =>
    test(s"${w.name}: end-to-end run is correct and reports the declared metrics") {
      val out = Bench.endToEnd(w, Bench.Options(w.name, 7L, 0.2, trace = false))
      assert(out.problems.isEmpty)
      assert(out.correct && out.attempted >= Bench.MinSamples + Bench.MinWarmup)
      assert(out.metrics.map(_._1) == declared("end_to_end"))
      val m = out.metrics.toMap
      assert(m("ok_frac")._1 == 1.0)
      assert(m("coverage_rate")._1 > 0.0 && m("solve_s.p50")._1 > 0.0 && m("setup_s")._1 > 0.0)

      val line = new ObjectMapper().readTree(Bench.resultJson(out))
      assert(line.fieldNames().asScala.toSeq == Seq("correct", "attempted", "failed", "metrics"))
      assert(line.get("correct").asBoolean && line.get("failed").asInt == 0)
      assert(line.get("metrics").get("coverage_rate").get("value").asDouble == m("coverage_rate")._1)
      assert(line.get("metrics").get("setup_s").get("unit").asText == "s")
    }
  }

  test("output check accepts a TED result and rejects tampered ones") {
    val db = MoleculeGen.db(MoleculeGen.aidsLike(40, 3))
    val r = Ted.full(db, repro.core.TedConfig(k = 3, eMax = 4))
    assert(OutputCheck.problems(r, db, 4).isEmpty)
    assert(OutputCheck.problems(r.copy(coverage = r.coverage + 1), db, 4).nonEmpty)
    assert(OutputCheck.problems(r, db, eMax = 0).nonEmpty)
    val p = r.patterns.head
    val dropped: Pattern = p.copy(cover = p.cover.drop(1))
    assert(OutputCheck.problems(r.copy(patterns = dropped +: r.patterns.tail), db, 4).nonEmpty)
  }

  test("option parsing rejects malformed arguments") {
    assert(Bench.parse(Array("--workload", "ted-aids3200", "--seed", "3", "--seconds", "2", "--trace", "1")).isRight)
    assert(Bench.parse(Array("--workload", "x", "--trace", "2")).isLeft)
    assert(Bench.parse(Array("--workload", "x", "--bogus", "1")).isLeft)
    assert(Bench.parse(Array("--workload")).isLeft)
  }
}

object BenchSpec {

  /** Workload and metric names declared in `BENCHMARK.json` at the
    * repository root (tests run in their project's directory).
    */
  lazy val declared: Map[String, Seq[String]] = {
    val json = new ObjectMapper().readTree(new File("../../BENCHMARK.json"))
    def names(key: String) = json.get(key).elements().asScala.map(_.get("name").asText).toSeq
    Seq("workloads", "end_to_end", "per_layer").map(k => k -> names(k)).toMap
  }
}
