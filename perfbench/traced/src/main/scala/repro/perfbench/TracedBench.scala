package repro.perfbench

import scala.collection.immutable.ListMap
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.RunResult
import repro.dist.{DistTed, GraphFrames, GraphRow}
import repro.graph.{DfsCode, GraphDb}
import repro.iso.SubIso
import repro.perfbench.Bench.{Calls, MinWarmup, Options, Outcome, median}

/** Benchmark entry point for the per-layer metrics:
  *
  * {{{
  * TracedBench --workload <name> --seed <n> --seconds <s> --trace 1
  * }}}
  *
  * Runs the timed loop of [[Bench.measure]] (for the JVM metrics, the
  * untraced call time and the output check), then replays the method
  * under a [[Tracer]] and reports the per-layer metrics. With `--trace 0`
  * it reports the end-to-end metrics, as [[Bench]] does.
  */
object TracedBench {

  def main(args: Array[String]): Unit = Bench.run(args) { (w, opts, dir) =>
    if (opts.trace) execute(w, opts, dir) else Bench.endToEnd(w, opts)
  }

  /** The same call as `Workloads.solve`, re-driven layer by layer by `r`. */
  def replay(w: Workload, r: Replay): RunResult = w.method match {
    case "ted"  => r.ted(w.config.copy(usePrm = true, useIps = true), "TED")
    case "base" => r.ted(w.config.copy(usePrm = false, useIps = false), "BASE")
    case "fsgg" => r.fsgG(w.k, w.eMax, w.supMin)
  }

  /** Timed loop, then the traced replay (and, for a workload with
    * `distPartitions`, the DistTED pass). The replay must return what the
    * entry point returned, and its counters must agree with the entry
    * point's own `enumerated`.
    */
  def execute(w: Workload, opts: Options, dir: String): Outcome = {
    val m = Bench.measure(w, opts)
    val db = m.db
    val calls = m.calls
    val problems = calls.problems

    // The first replay only warms the JIT for the replay's own code; the
    // second is the one reported. The clock around it is read outside the
    // tracer, so that the span times are checked against it.
    replay(w, new Replay(db, new Tracer))
    System.gc()
    val tracer = new Tracer
    val r = new Replay(db, tracer)
    val (replayed, wallS) = Bench.time(replay(w, r))
    val matches = calls.matches(replayed)
    if (!matches) problems += "replay differs from the entry point"

    // Counters against the entry point: every enumerated pattern is a root
    // or a node the replay generated (BASE, FSG_g) or descended into past
    // PRM (TED, whose IPS climbs generate nodes that are not enumerated).
    if (calls.first != null) {
      val enumerated = calls.first.enumerated
      val visited =
        if (w.method == "ted") r.rootCount + r.prmChecks - r.prmPruned
        else r.rootCount + r.nodes
      if (visited != enumerated) problems += s"replay visited $visited patterns, the entry point enumerated $enumerated"
    }
    // The replay's own bookkeeping: every canonical check is a rejection,
    // a kept node or a node dropped for support.
    if (r.isMinCalls != r.isMinRejected + r.nodes + r.supportDropped)
      problems += s"ismin calls ${r.isMinCalls} != rejected + nodes + support_dropped"
    if (tracer.selfSecondsSum > wallS)
      problems += s"span self time ${tracer.selfSecondsSum} s > replay wall time $wallS s"

    val dist =
      if (w.distPartitions == 0) None
      else Some(withSpark(w, db, dir)(distTrace(w, db, _, _)))
    dist.foreach { d =>
      problems ++= d.calls.problems
      if (!d.matches) problems += "DistTED replay differs from DistTed.run"
    }

    import Tracer._
    val t = tracer
    val dr = dist.map(_.replay).getOrElse(new Replay(db, new Tracer))
    val dt = dr.tracer
    val (isoS, isoCalls, isoEmbeddings) = dist.map(_.iso).getOrElse((0.0, 0L, 0L))
    def ratio(a: Long, b: Long): Double = if (b == 0) 0.0 else a.toDouble / b
    val metrics = Seq[(String, (Double, String))](
      "data.generate_s" -> (median(m.setupS) -> "s"),
      "data.graphs" -> (db.numGraphs.toDouble -> "count"),
      "data.edges" -> (db.totalEdges.toDouble -> "count"),
      "enumeration.roots_s" -> (t.selfSeconds(Roots) -> "s"),
      "enumeration.children_s" -> (t.selfSeconds(Children) -> "s"),
      "enumeration.children.calls" -> (r.childrenCalls.toDouble -> "count"),
      "enumeration.extensions" -> (r.extensions.toDouble -> "count"),
      "enumeration.candidates" -> (r.candidates.toDouble -> "count"),
      "enumeration.nodes" -> (r.nodes.toDouble -> "count"),
      "enumeration.support_dropped" -> (r.supportDropped.toDouble -> "count"),
      "enumeration.embeddings" -> (r.embeddings.toDouble -> "count"),
      "enumeration.embeddings.max" -> (r.embeddingsMax.toDouble -> "count"),
      "enumeration.cover_s" -> (t.selfSeconds(Cover) -> "s"),
      "enumeration.cover.calls" -> (r.coverCalls.toDouble -> "count"),
      "enumeration.cover.edges" -> (r.coverEdges.toDouble -> "count"),
      "enumeration.graphids_s" -> (t.selfSeconds(GraphIds) -> "s"),
      "graph.ismin_s" -> (t.selfSeconds(IsMin) -> "s"),
      "graph.ismin.calls" -> (r.isMinCalls.toDouble -> "count"),
      "graph.ismin.rejected" -> (r.isMinRejected.toDouble -> "count"),
      "graph.ismin.keep_ratio" -> (ratio(r.isMinCalls - r.isMinRejected, r.isMinCalls) -> "ratio"),
      "cover.pes_s" -> (t.selfSeconds(Pes) -> "s"),
      "cover.pes.inserts" -> (r.pesInserts.toDouble -> "count"),
      "cover.pes.swaps" -> (r.pesSwaps.toDouble -> "count"),
      "cover.pes.benefit_calls" -> (r.pesBenefitCalls.toDouble -> "count"),
      "cover.pes.swap_ratio" -> (ratio(r.pesSwaps, r.pesBenefitCalls) -> "ratio"),
      "cover.pes.bytes" -> (r.pesBytes.toDouble -> "bytes"),
      "cover.maxcover_s" -> (t.selfSeconds(MaxCover) + dt.selfSeconds(MaxCover) -> "s"),
      "cover.maxcover.candidates" -> ((r.maxCoverCandidates + dr.maxCoverCandidates).toDouble -> "count"),
      "core.ips_s" -> (t.selfSeconds(Ips) -> "s"),
      "core.ips.climb_steps" -> (r.ipsClimbSteps.toDouble -> "count"),
      "core.prm_s" -> (t.selfSeconds(Prm) -> "s"),
      "core.prm.checks" -> (r.prmChecks.toDouble -> "count"),
      "core.prm.pruned" -> (r.prmPruned.toDouble -> "count"),
      "core.prm.prune_ratio" -> (ratio(r.prmPruned, r.prmChecks) -> "ratio"),
      "core.collect_s" -> (t.selfSeconds(Collect) -> "s"),
      "iso.coverset_s" -> (isoS -> "s"),
      "iso.coverset.calls" -> (isoCalls.toDouble -> "count"),
      "iso.embeddings" -> (isoEmbeddings.toDouble -> "count"),
      "dist.scan_s" -> (dt.selfSeconds(DistScan) -> "s"),
      "dist.offsets_s" -> (dt.selfSeconds(DistOffsets) -> "s"),
      "dist.cover_s" -> (dt.selfSeconds(DistCover) -> "s"),
      "dist.select_s" -> (dt.selfSeconds(DistSelect) -> "s"),
      "dist.candidates" -> (dr.distCandidates.toDouble -> "count"),
      "dist.cover_rows" -> (dr.distCoverRows.toDouble -> "count"),
      "jvm.alloc_mb" -> (median(m.allocMb) -> "MB"),
      "jvm.gc_s" -> (median(m.gcS) -> "s"),
      "jvm.heap_peak_mb" -> (m.heapPeakMb -> "MB"),
      "trace.wall_s" -> (wallS -> "s"),
      "trace.overhead_ratio" -> (wallS / median(m.solveS) -> "ratio"),
      "trace.unattributed_s" -> (t.selfSeconds(Run) -> "s"),
      "trace.replay_match" -> ((if (matches && dist.forall(_.matches)) 1.0 else 0.0) -> "flag"),
    )
    def spans(t: Tracer) = t.summary.map { case (name, n, total, self) =>
      ListMap("span" -> name, "spans" -> n, "total_s" -> total, "self_s" -> self)
    }
    val distRecord = dist.toSeq.flatMap { d =>
      Seq("dist_coverage" -> d.calls.first.coverage, "dist_patterns" -> d.calls.firstKeys, "dist_spans" -> spans(dt))
    }
    Outcome(w, opts.seed, calls.attempted + dist.fold(0)(_.calls.attempted),
      calls.failed + dist.fold(0)(_.calls.failed), problems.toSeq, metrics,
      m.record ++ Seq("spans" -> spans(t)) ++ distRecord)
  }

  final case class DistTrace(calls: Calls, replay: Replay, matches: Boolean, iso: (Double, Long, Long))

  /** `DistTed.run` on the workload's data and configuration: untimed calls
    * for `w.distWarmup` seconds (the first is checked), then the
    * traced replay, then the `repro.iso` calls of its cover phase.
    */
  private def distTrace(w: Workload, db: GraphDb, spark: SparkSession, ds: Dataset[GraphRow]): DistTrace = {
    val calls = new Calls(() => DistTed.run(spark, ds, w.config).result)
    val start = System.nanoTime()
    while (calls.attempted < MinWarmup || System.nanoTime() - start < w.distWarmup * 1e9) calls.call()
    calls.check(db, w.eMax)
    new Replay(db, new Tracer).distTed(spark, ds, w.config)
    System.gc()
    val replay = new Replay(db, new Tracer)
    val replayed = replay.distTed(spark, ds, w.config)
    DistTrace(calls, replay, calls.matches(replayed), isoLayer(replay.distCandidateKeys, db))
  }

  /** Time and count the `SubIso.coverSet` calls of DistTED's cover phase,
    * which run inside Spark tasks, by repeating them in this process: every
    * candidate against every database graph.
    */
  private def isoLayer(candidates: Seq[String], db: GraphDb): (Double, Long, Long) = {
    val patterns = candidates.map(c => DfsCode.toGraph(DfsCode.parse(c)))
    var nanos = 0L
    var calls = 0L
    var embeddings = 0L
    patterns.foreach { p =>
      db.graphs.foreach { g =>
        val t0 = System.nanoTime()
        SubIso.coverSet(p, g)
        nanos += System.nanoTime() - t0
        calls += 1
        embeddings += SubIso.countEmbeddings(p, g)
      }
    }
    (nanos / 1e9, calls, embeddings)
  }

  /** Run `body` with a local session of no more threads than cores and
    * the database cached as a `distPartitions`-partition Dataset; the
    * session is stopped afterwards.
    */
  def withSpark[A](w: Workload, db: GraphDb, scratchDir: String)(body: (SparkSession, Dataset[GraphRow]) => A): A = {
    val spark = SparkSession.builder()
      .master(s"local[${math.min(w.distPartitions, Runtime.getRuntime.availableProcessors)}]")
      .appName(s"perfbench-${w.name}")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", w.distPartitions.toLong)
      .config("spark.local.dir", s"$scratchDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$scratchDir/spark-warehouse")
      .getOrCreate()
    try {
      val ds = GraphFrames.toDS(spark, db).repartition(w.distPartitions).cache()
      ds.count()
      body(spark, ds)
    } finally spark.stop()
  }
}
