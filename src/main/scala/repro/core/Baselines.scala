package repro.core

import repro.cover.MaxCover
import repro.enumeration.{Enumerator, PatternNode, TedTimeout}
import repro.graph.GraphDb

/** The four baseline solutions of Sections 3 and 7.1:
  *
  *  - ALL_g (Algorithm 1): enumerate-and-store every subgraph, then greedy
  *    MaxCover — (1 - 1/e) quality, exponential memory;
  *  - FSG_g (Algorithm 2): same with only frequent subgraphs;
  *  - ALL_t / FSG_t: the swapping variants — stream the (frequent)
  *    enumeration through the PES-Index maintenance instead of storing.
  */
object Baselines {

  /** Shared enumerate-collect-then-greedy path of Algorithms 1 and 2. */
  private def collectThenGreedy(
      db: GraphDb, k: Int, eMax: Int, minSupport: Int,
      timeoutMillis: Long, method: String): RunResult = {
    val t0 = System.nanoTime()
    val deadline =
      if (timeoutMillis == Long.MaxValue) Long.MaxValue else t0 + timeoutMillis * 1000000L
    val en = new Enumerator(db, eMax, minSupport, deadline)
    var collected: IndexedSeq[PatternNode] = IndexedSeq.empty
    var timedOut = false
    try collected = en.collectAll()
    catch { case _: TedTimeout => timedOut = true }

    if (timedOut)
      return RunResult(method, Nil, 0, db.totalEdges,
        (System.nanoTime() - t0) / 1000000L, collected.size.toLong, 0L, 0L, timedOut = true)

    val covers = collected.map(_.coverGlobal(db))
    val (chosen, coverage) = MaxCover.greedy(covers, k, db.totalEdges)
    val patterns = chosen.map { ci =>
      val n = collected(ci)
      Pattern(n.code, n.graph, covers(ci), n.support)
    }
    RunResult(method, patterns, coverage, db.totalEdges,
      (System.nanoTime() - t0) / 1000000L, collected.size.toLong, 0L, 0L, timedOut = false)
  }

  /** Streamed swapping variant: identical enumeration, PES maintenance. */
  private def streamSwap(
      db: GraphDb, k: Int, eMax: Int, minSupport: Int, alpha: Double,
      timeoutMillis: Long, method: String): RunResult =
    Ted.run(db,
      TedConfig(k = k, eMax = eMax, alpha = alpha, usePrm = false, useIps = false,
        minSupport = minSupport, timeoutMillis = timeoutMillis),
      method)

  def allG(db: GraphDb, k: Int, eMax: Int, timeoutMillis: Long = Long.MaxValue): RunResult =
    collectThenGreedy(db, k, eMax, minSupport = 1, timeoutMillis, "ALL_g")

  def allT(db: GraphDb, k: Int, eMax: Int, alpha: Double = 1.0,
           timeoutMillis: Long = Long.MaxValue): RunResult =
    streamSwap(db, k, eMax, minSupport = 1, alpha, timeoutMillis, "ALL_t")

  def fsgG(db: GraphDb, k: Int, eMax: Int, supMin: Double,
           timeoutMillis: Long = Long.MaxValue): RunResult =
    collectThenGreedy(db, k, eMax, minSupport = supportCount(db, supMin), timeoutMillis, "FSG_g")

  def fsgT(db: GraphDb, k: Int, eMax: Int, supMin: Double, alpha: Double = 1.0,
           timeoutMillis: Long = Long.MaxValue): RunResult =
    streamSwap(db, k, eMax, supportCount(db, supMin), alpha, timeoutMillis, "FSG_t")

  /** sup_min in [0,1] -> absolute graph-count threshold (at least 1). */
  def supportCount(db: GraphDb, supMin: Double): Int =
    math.max(1, math.ceil(supMin * db.numGraphs).toInt)

  /** Exhaustive optimum over the full pattern space — the OPT reference;
    * only feasible on tiny databases (PubChem100/AIDS100-scale analogue).
    */
  def optimal(db: GraphDb, k: Int, eMax: Int): RunResult = {
    val t0 = System.nanoTime()
    val en = new Enumerator(db, eMax, 1, Long.MaxValue)
    val collected = en.collectAll()
    val covers = collected.map(_.coverGlobal(db))
    val (chosen, coverage) = MaxCover.optimal(covers, k)
    val patterns = chosen.map { ci =>
      val n = collected(ci)
      Pattern(n.code, n.graph, covers(ci), n.support)
    }
    RunResult("OPT", patterns, coverage, db.totalEdges,
      (System.nanoTime() - t0) / 1000000L, collected.size.toLong, 0L, 0L, timedOut = false)
  }

  /** Top-k frequent subgraphs (the FS comparator of Exps 6–7): highest
    * support first, larger patterns breaking ties, 1-edge patterns last.
    */
  def topKFrequent(db: GraphDb, k: Int, eMax: Int, supMin: Double,
                   minEdges: Int = 2): Seq[Pattern] = {
    val en = new Enumerator(db, eMax, supportCount(db, supMin), Long.MaxValue)
    val all = en.collectAll()
    all
      .filter(_.numEdges >= minEdges)
      .sortBy(n => (-n.support, -n.numEdges, n.key))
      .take(k)
      .map(n => Pattern(n.code, n.graph, n.coverGlobal(db), n.support))
  }
}
