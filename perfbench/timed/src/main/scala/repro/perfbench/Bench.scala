package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import com.fasterxml.jackson.databind.ObjectMapper
import repro.core.RunResult
import repro.graph.GraphDb

/** Benchmark entry point for the end-to-end metrics: one workload, one
  * seed, one run.
  *
  * {{{
  * Bench --workload <name> --seed <n> --seconds <s> --trace 0
  * }}}
  *
  * The run alternates set-up and entry-point calls, one at a time: untimed
  * for `warmup` seconds, then timed in a closed loop for `--seconds`.
  * The first result is checked by [[OutputCheck]] and every other call
  * must return its pattern keys. `--trace 1` is served by `TracedBench`
  * of the traced project, which runs the same loop and then the replay.
  * The last line on stdout is the result as one JSON object.
  */
object Bench {

  final case class Options(workload: String, seed: Long, seconds: Double, trace: Boolean)

  /** Calls timed in every run, however long one call takes. */
  val MinSamples = 3

  /** Untimed calls before timing starts, however long one call takes. */
  val MinWarmup = 2

  /** Set-ups timed in every iteration of the loop; `setup_s` is their median. */
  val SetupsPerIteration = 3

  def parse(args: Array[String]): Either[String, Options] = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    if (args.length % 2 != 0 || kv.size * 2 != args.length) return Left("arguments must be --key value pairs")
    val unknown = kv.keySet -- Set("workload", "seed", "seconds", "trace")
    if (unknown.nonEmpty) return Left(s"unknown options: ${unknown.mkString(", ")}")
    try {
      val o = Options(
        workload = kv.getOrElse("workload", throw new IllegalArgumentException("--workload is required")),
        seed = kv.get("seed").map(_.toLong).getOrElse(Workloads.DefaultSeed),
        seconds = kv.get("seconds").map(_.toDouble).getOrElse(10.0),
        trace = kv.getOrElse("trace", "0") match {
          case "0" => false
          case "1" => true
          case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
        },
      )
      if (o.seconds <= 0) Left("--seconds must be positive") else Right(o)
    } catch { case e: IllegalArgumentException => Left(e.getMessage) }
  }

  def main(args: Array[String]): Unit = run(args) { (w, opts, _) =>
    if (opts.trace) fail("--trace 1 is run by repro.perfbench.TracedBench of the traced project")
    endToEnd(w, opts)
  }

  /** Parse `args`, run the workload they name with `execute` (given the
    * directory for run records and scratch files), write the run record
    * and print the result line.
    */
  def run(args: Array[String])(execute: (Workload, Options, String) => Outcome): Unit = {
    val opts = parse(args) match {
      case Right(o)  => o
      case Left(msg) => fail(msg)
    }
    val w = Workloads.full.find(_.name == opts.workload).getOrElse(
      fail(s"unknown workload ${opts.workload}; known: ${Workloads.full.map(_.name).mkString(", ")}"))
    val dir = sys.props.getOrElse("perfbench.dir", "target/perfbench")
    val outcome = execute(w, opts, dir)
    writeRecord(outcome, opts, dir)
    outcome.metrics.foreach { case (name, (v, unit)) => println(f"$name%-30s $v%.6g $unit") }
    println(resultJson(outcome))
  }

  private def fail(msg: String): Nothing = {
    Console.err.println(s"perfbench: $msg")
    sys.exit(2)
  }

  // ------------------------------------------------------------------
  // one run
  // ------------------------------------------------------------------

  final case class Outcome(
      workload: Workload,
      seed: Long,
      attempted: Int,
      failed: Int,
      problems: Seq[String],
      metrics: Seq[(String, (Double, String))],
      record: Seq[(String, Any)],
  ) {
    def correct: Boolean = failed == 0 && problems.isEmpty
  }

  /** Calls of one entry point. Every call must return the first call's
    * pattern keys; the first result is checked once by [[OutputCheck]].
    */
  final class Calls(solve: () => RunResult) {
    var attempted = 0
    var failed = 0
    var first: RunResult = null
    var firstKeys: Seq[String] = null
    val problems = mutable.ArrayBuffer.empty[String]

    /** One call; it fails when it throws, times out or returns other
      * patterns than the first call.
      */
    def call(): Unit = {
      attempted += 1
      val problem =
        try {
          val r = solve()
          val keys = OutputCheck.keys(r)
          if (first == null) { first = r; firstKeys = keys }
          if (r.timedOut) Some("timed out")
          else if (keys != firstKeys) Some("returned other patterns")
          else None
        } catch { case NonFatal(e) => Some(s"threw $e") }
      problem.foreach { p => problems += s"call $attempted $p"; failed += 1 }
    }

    /** The output check, once, outside the timed calls. A wrong first
      * result makes every call that repeated it wrong.
      */
    def check(db: GraphDb, eMax: Int): Unit =
      if (first == null) problems += "no call returned"
      else {
        val bad = OutputCheck.problems(first, db, eMax)
        if (bad.nonEmpty) { problems ++= bad; failed = attempted }
      }

    /** A replay matches when it returns the first call's pattern keys,
      * coverage and number of enumerated patterns.
      */
    def matches(r: RunResult): Boolean =
      first != null && OutputCheck.keys(r) == firstKeys &&
        r.coverage == first.coverage && r.enumerated == first.enumerated
  }

  /** What the timed loop measured: one entry per set-up or per timed call. */
  final case class Measured(
      db: GraphDb,
      calls: Calls,
      setupS: Seq[Double],
      coldSetupS: Double,
      solveS: Seq[Double],
      cpuS: Seq[Double],
      allocMb: Seq[Double],
      gcS: Seq[Double],
      heapPeakMb: Double,
  ) {
    def record: Seq[(String, Any)] = {
      val first = calls.first
      Seq(
        "samples" -> solveS.length,
        "solve_s" -> solveS,
        "solve_cpu_s" -> cpuS,
        "setup_s" -> setupS,
        "setup_cold_s" -> coldSetupS,
        "coverage" -> (if (first == null) 0 else first.coverage),
        "enumerated" -> (if (first == null) 0L else first.enumerated),
        "patterns" -> (if (first == null) Nil else calls.firstKeys),
      )
    }
  }

  /** Set up, warm up, time and check.
    *
    * Every iteration of the warm-up and the timed loop sets up
    * `SetupsPerIteration` times and calls the entry point once, each part
    * after a `System.gc()`, so that `setup_s` and `solve_s.p50` are medians
    * over the same window.
    */
  def measure(w: Workload, opts: Options): Measured = {
    val (db, coldSetup) = time(Workloads.setup(w, opts.seed))
    val calls = new Calls(() => Workloads.solve(w, db))
    val setupTimes = mutable.ArrayBuffer.empty[Double]
    val wall = mutable.ArrayBuffer.empty[Double]
    val cpu = mutable.ArrayBuffer.empty[Double]
    val allocMb = mutable.ArrayBuffer.empty[Double]
    val gcS = mutable.ArrayBuffer.empty[Double]
    var heapPeakMb = 0.0
    var deterministic = true
    val jvm = new JvmProbe

    def iteration(record: Boolean): Unit = {
      System.gc()
      val setups = Seq.fill(SetupsPerIteration) {
        val (again, s) = time(Workloads.setup(w, opts.seed))
        deterministic &&= again.totalEdges == db.totalEdges
        s
      }
      System.gc()
      jvm.start()
      val c0 = jvm.processCpuNanos
      val t0 = System.nanoTime()
      calls.call()
      val t1 = System.nanoTime()
      val c1 = jvm.processCpuNanos
      val (alloc, gc, peak) = jvm.stop()
      if (record) {
        setupTimes ++= setups
        wall += (t1 - t0) / 1e9
        cpu += (c1 - c0) / 1e9
        allocMb += alloc / 1048576.0
        gcS += gc
        heapPeakMb = math.max(heapPeakMb, peak / 1048576.0)
      }
    }

    val warmStart = System.nanoTime()
    while (calls.attempted < MinWarmup || System.nanoTime() - warmStart < w.warmup * 1e9) iteration(record = false)
    val loopStart = System.nanoTime()
    while (wall.length < MinSamples || System.nanoTime() - loopStart < opts.seconds * 1e9) iteration(record = true)
    calls.check(db, w.eMax)
    if (!deterministic) calls.problems += "set-up is not deterministic"
    Measured(db, calls, setupTimes.toSeq, coldSetup, wall.toSeq, cpu.toSeq, allocMb.toSeq, gcS.toSeq, heapPeakMb)
  }

  /** The timed loop and the end-to-end metrics. */
  def endToEnd(w: Workload, opts: Options): Outcome = {
    val m = measure(w, opts)
    val calls = m.calls
    val metrics = Seq(
      "setup_s" -> (median(m.setupS) -> "s"),
      "solve_s.p50" -> (median(m.solveS) -> "s"),
      "solve_cpu_s.p50" -> (median(m.cpuS) -> "s"),
      "coverage_rate" -> ((if (calls.first == null) 0.0 else calls.first.coverageRate) -> "ratio"),
      "ok_frac" -> ((calls.attempted - calls.failed).toDouble / calls.attempted -> "ratio"),
    )
    Outcome(w, opts.seed, calls.attempted, calls.failed, calls.problems.toSeq, metrics, m.record)
  }

  // ------------------------------------------------------------------
  // measurement helpers
  // ------------------------------------------------------------------

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
    }

  def time[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Allocation, GC time and heap peak around one call, over all threads. */
  final class JvmProbe {
    private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    private val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
    private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
    private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP).toSeq
    private var alloc0 = Map.empty[Long, Long]
    private var gc0 = 0L

    def processCpuNanos: Long = os.getProcessCpuTime

    private def allocated: Map[Long, Long] = {
      val ids = threads.getAllThreadIds
      ids.zip(threads.getThreadAllocatedBytes(ids)).filter(_._2 >= 0).toMap
    }

    private def gcMillis: Long = gcs.map(g => math.max(0L, g.getCollectionTime)).sum

    def start(): Unit = {
      heapPools.foreach(_.resetPeakUsage())
      gc0 = gcMillis
      alloc0 = allocated
    }

    /** (allocated bytes, GC seconds, heap peak bytes) since `start`. */
    def stop(): (Double, Double, Double) = {
      val alloc = allocated.iterator.map { case (id, b) => b - alloc0.getOrElse(id, 0L) }.sum
      val gc = (gcMillis - gc0) / 1e3
      val peak = heapPools.map(_.getPeakUsage.getUsed).sum
      (alloc.toDouble, gc, peak.toDouble)
    }
  }

  // ------------------------------------------------------------------
  // output
  // ------------------------------------------------------------------

  private val mapper = new ObjectMapper()

  /** JSON text of `v`: a `ListMap` becomes an object, a `Seq` an array. */
  def json(v: Any): String = mapper.writeValueAsString(toJava(v))

  private def toJava(v: Any): Any = v match {
    case m: ListMap[_, _] =>
      val o = new java.util.LinkedHashMap[String, Any]()
      m.foreach { case (k, x) => o.put(k.toString, toJava(x)) }
      o
    case xs: Seq[_] => xs.map(toJava).asJava
    case x          => x
  }

  def resultJson(run: Outcome): String = {
    run.metrics.foreach { case (name, (v, _)) =>
      require(!v.isNaN && !v.isInfinite, s"metric $name is $v, which has no JSON form")
    }
    json(ListMap(
      "correct" -> run.correct,
      "attempted" -> run.attempted,
      "failed" -> run.failed,
      "metrics" -> ListMap(run.metrics.map { case (name, (v, unit)) => name -> ListMap("value" -> v, "unit" -> unit) }: _*),
    ))
  }

  /** Everything needed to reproduce and compare the run: seed, dataset
    * parameters, source version, machine and JVM.
    */
  def writeRecord(run: Outcome, opts: Options, dir: String): Unit = {
    val rt = ManagementFactory.getRuntimeMXBean
    val rec = Seq[(String, Any)](
      "workload" -> run.workload.name,
      "method" -> run.workload.method,
      "seed" -> run.seed,
      "dataset" -> run.workload.data(run.seed).toString,
      "k" -> run.workload.k,
      "e_max" -> run.workload.eMax,
      "sup_min" -> run.workload.supMin,
      "seconds" -> opts.seconds,
      "trace" -> opts.trace,
      "git_sha" -> sys.props.getOrElse("perfbench.gitSha", "unknown"),
      "source_sha256" -> sys.props.getOrElse("perfbench.sourceSha", "unknown"),
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}",
      "xmx_mb" -> Runtime.getRuntime.maxMemory / 1048576,
      "jvm_args" -> rt.getInputArguments.asScala.toSeq,
      "correct" -> run.correct,
      "attempted" -> run.attempted,
      "failed" -> run.failed,
      "problems" -> run.problems,
      "metrics" -> run.metrics.map { case (n, (v, u)) => ListMap("name" -> n, "value" -> v, "unit" -> u) },
    ) ++ run.record
    val out = new java.io.File(new java.io.File(dir, "runs"),
      s"${run.workload.name}-seed${run.seed}-trace${if (opts.trace) 1 else 0}.json")
    out.getParentFile.mkdirs()
    java.nio.file.Files.writeString(out.toPath, json(ListMap(rec: _*)) + "\n")
    // The scalar fields on stdout; samples and spans are in the file.
    val scalars = rec.filter { case (_, v) => !v.isInstanceOf[Seq[_]] } :+ ("file" -> out.getPath)
    println(s"run-record ${json(ListMap(scalars: _*))}")
    run.problems.foreach(p => Console.err.println(s"perfbench: $p"))
  }
}
