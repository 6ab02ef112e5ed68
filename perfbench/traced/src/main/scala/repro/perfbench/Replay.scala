package repro.perfbench

import scala.collection.mutable
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.functions.{col, size}
import repro.core.{Baselines, Pattern, RunResult, Ted, TedConfig}
import repro.cover.PesIndex
import repro.dist.{DistTed, GraphRow}
import repro.enumeration.{Emb, Enumerator, PatternNode}
import repro.graph._
import repro.perfbench.Tracer._

/** Traced replay of the benchmarked methods.
  *
  * Each method is re-driven from here through the public functions of its
  * layers, mirroring the entry point call for call, with a span around
  * every call into a layer and counters at the same boundaries. The
  * replay must return exactly what the entry point returns; the benchmark
  * checks that. Single-threaded except inside Spark jobs, whose executor
  * time is not attributed to spans.
  */
final class Replay(db: GraphDb, val tracer: Tracer) {

  // enumeration / graph layer counters
  var rootCount      = 0L // roots of the database (one-edge patterns)
  var childrenCalls  = 0L
  var extensions     = 0L
  var candidates     = 0L
  var nodes          = 0L
  var supportDropped = 0L
  var embeddings     = 0L
  var embeddingsMax  = 0L
  var isMinCalls     = 0L
  var isMinRejected  = 0L
  var coverCalls     = 0L
  var coverEdges     = 0L

  // cover layer counters
  var pesInserts      = 0L
  var pesSwaps        = 0L
  var pesBenefitCalls = 0L
  var pesBytes        = 0L
  var maxCoverCandidates = 0L

  // core layer counters
  var ipsClimbSteps = 0L
  var prmChecks     = 0L
  var prmPruned     = 0L

  // dist layer counters
  var distCandidates = 0L
  var distCandidateKeys: Seq[String] = Nil
  var distCoverRows  = 0L

  private val materialized =
    java.util.Collections.newSetFromMap(new java.util.IdentityHashMap[PatternNode, java.lang.Boolean]())

  private def generated(n: PatternNode): Unit = {
    embeddings += n.embeddings.length
    embeddingsMax = math.max(embeddingsMax, n.embeddings.length.toLong)
  }

  // ------------------------------------------------------------------
  // enumeration and graph layers
  // ------------------------------------------------------------------

  def roots(en: Enumerator): IndexedSeq[PatternNode] = tracer.span(Roots) {
    val rs = en.roots
    rootCount = rs.length
    rs.foreach(generated)
    rs
  }

  /** `Enumerator.children`: right-most extension grouped across
    * embeddings, then the canonical check and the support filter per
    * candidate.
    */
  def children(p: PatternNode, minSupport: Int): IndexedSeq[PatternNode] = tracer.span(Children) {
    childrenCalls += 1
    val byExt = mutable.Map.empty[CodeEdge, mutable.ArrayBuffer[Emb]]
    p.embeddings.foreach { emb =>
      val g = db.graphs(emb.graphIdx)
      RightMost.foreachExtension(g, p.rmPath, p.nVerts, emb.vmap, emb.eids) { (ce, w, eid) =>
        extensions += 1
        val nv = if (w >= 0) emb.vmap :+ w else emb.vmap
        byExt.getOrElseUpdate(ce, mutable.ArrayBuffer.empty) +=
          Emb(emb.graphIdx, nv, emb.eids :+ eid)
      }
    }
    candidates += byExt.size
    byExt.toIndexedSeq
      .sortBy(_._1)(CodeEdge.ordering)
      .flatMap { case (ce, embs) =>
        val code = p.code :+ ce
        if (!isMin(code)) None
        else {
          val rm = if (ce.isForward) DfsCode.extendRmPath(p.rmPath, ce) else p.rmPath
          val nv = if (ce.isForward) p.nVerts + 1 else p.nVerts
          val node = new PatternNode(code, rm, nv, embs.toArray)
          if (graphIds(node).length >= minSupport) { nodes += 1; generated(node); Some(node) }
          else { supportDropped += 1; None }
        }
      }
  }

  def isMin(code: Vector[CodeEdge]): Boolean = tracer.span(IsMin) {
    isMinCalls += 1
    val ok = CanonicalCode.isMin(code)
    if (!ok) isMinRejected += 1
    ok
  }

  def graphIds(n: PatternNode): Array[Int] = tracer.span(GraphIds)(n.graphIds)

  def cover(n: PatternNode): Array[Int] = tracer.span(Cover) {
    val c = n.coverGlobal(db)
    if (materialized.add(n)) { coverCalls += 1; coverEdges += c.length }
    c
  }

  def coverage(n: PatternNode): Int = cover(n).length

  // ------------------------------------------------------------------
  // Ted.run (BASE / PRM / full TED)
  // ------------------------------------------------------------------

  def ted(cfg: TedConfig, method: String): RunResult = tracer.span(Run) {
    val t0 = System.nanoTime()
    val en = new Enumerator(db, cfg.eMax, cfg.minSupport)
    val pes = new PesIndex(cfg.k, db)
    var enumerated = 0L

    def insert(n: PatternNode, c: Array[Int]): Unit = tracer.span(Pes) {
      pesInserts += 1
      pes.insert(n.code, n.key, c)
    }

    def maintain(node: PatternNode): Unit = {
      enumerated += 1
      if (node.numEdges < cfg.minEdges) return
      if (pes.contains(node.key)) return
      val c = cover(node)
      if (!pes.isFull) insert(node, c)
      else {
        val b = tracer.span(Pes) { pesBenefitCalls += 1; pes.benefit(c) }
        val (loss, slot) = tracer.span(Pes)(pes.minLoss)
        if (b > Ted.swapThreshold(cfg.alpha, loss, pes.totalCoverage, cfg.k))
          tracer.span(Pes) { pesSwaps += 1; pes.update(slot, node.code, node.key, c) }
      }
    }

    def prmKeep(parent: PatternNode, child: PatternNode): Boolean = tracer.span(Prm) {
      prmChecks += 1
      val keep = !pes.isFull || {
        val (loss, _) = tracer.span(Pes)(pes.minLoss)
        val threshold = Ted.swapThreshold(cfg.alpha, loss, pes.totalCoverage, cfg.k)
        var ub = 0L
        val ids = graphIds(child)
        var i = 0
        while (i < ids.length) { ub += pes.uncovered(ids(i)); i += 1 }
        if (!pes.contains(parent.key) && ub > threshold) {
          val parentCover = cover(parent)
          val childCover = cover(child)
          var j = 0
          while (j < parentCover.length) {
            val e = parentCover(j)
            if (!pes.isCovered(e) &&
                java.util.Arrays.binarySearch(childCover, e) < 0 &&
                java.util.Arrays.binarySearch(ids, db.graphOfEdge(e)) >= 0) ub -= 1
            j += 1
          }
        }
        ub > threshold
      }
      if (!keep) prmPruned += 1
      keep
    }

    def dfs(node: PatternNode): Unit = {
      maintain(node)
      if (node.numEdges < cfg.eMax) {
        var kids = children(node, cfg.minSupport)
        if (cfg.usePrm) kids = kids.filter(prmKeep(node, _))
        kids.foreach(dfs)
      }
    }

    if (cfg.useIps)
      ips(en, cfg).foreach { n =>
        if (n.numEdges >= cfg.minEdges && !pes.isFull && !pes.contains(n.key)) insert(n, cover(n))
      }
    roots(en).foreach(dfs)

    pesBytes = pes.sizeBytes
    val patterns = pes.patternSlots.map { s =>
      val code = pes.codeAt(s)
      val c = pes.coverAt(s)
      Pattern(code, DfsCode.toGraph(code), c, c.iterator.map(db.graphOfEdge(_)).distinct.size)
    }
    RunResult(method, patterns, pes.totalCoverage, db.totalEdges,
      (System.nanoTime() - t0) / 1000000L, enumerated, pes.maintenanceNanos, pes.sizeBytes, timedOut = false)
  }

  /** `Ips.initialPatterns`: benefit-greedy climb from every root. */
  private def ips(en: Enumerator, cfg: TedConfig): Seq[PatternNode] = tracer.span(Ips) {
    val climbed = roots(en).map { root =>
      var cur = root
      var curCov = coverage(cur)
      var go = true
      while (go && cur.numEdges < cfg.eMax) {
        val kids = children(cur, cfg.minSupport)
        if (kids.isEmpty) go = false
        else {
          val best = kids.maxBy(coverage)
          if (coverage(best) > curCov) { cur = best; curCov = coverage(best); ipsClimbSteps += 1 }
          else go = false
        }
      }
      cur
    }
    climbed.sortBy(n => -coverage(n)).distinctBy(_.key).take(cfg.k)
  }

  // ------------------------------------------------------------------
  // Baselines.fsgG (enumerate and store, then greedy MaxCover)
  // ------------------------------------------------------------------

  def fsgG(k: Int, eMax: Int, supMin: Double): RunResult = tracer.span(Run) {
    val t0 = System.nanoTime()
    val minSupport = Baselines.supportCount(db, supMin)
    val en = new Enumerator(db, eMax, minSupport)
    val buf = mutable.ArrayBuffer.empty[PatternNode]
    tracer.span(Collect) {
      def visit(n: PatternNode): Unit = {
        buf += n
        if (n.numEdges < eMax) children(n, minSupport).foreach(visit)
      }
      roots(en).foreach(visit)
    }
    val collected = buf.toIndexedSeq
    val covers = collected.map(cover)
    val (chosen, coverageCount) = greedy(covers, k, db.totalEdges)
    val patterns = chosen.map { ci =>
      val n = collected(ci)
      Pattern(n.code, n.graph, covers(ci), n.support)
    }
    RunResult("FSG_g", patterns, coverageCount, db.totalEdges,
      (System.nanoTime() - t0) / 1000000L, collected.size.toLong, 0L, 0L, timedOut = false)
  }

  private def greedy(covers: IndexedSeq[Array[Int]], k: Int, totalEdges: Int): (Seq[Int], Int) =
    tracer.span(MaxCover) {
      maxCoverCandidates += covers.length
      repro.cover.MaxCover.greedy(covers, k, totalEdges)
    }

  // ------------------------------------------------------------------
  // DistTed.run (scan, offsets, cover, select)
  // ------------------------------------------------------------------

  def distTed(spark: SparkSession, ds: Dataset[GraphRow], cfg: TedConfig): RunResult = tracer.span(Run) {
    val t0 = System.nanoTime()
    val cands = tracer.span(DistScan)(DistTed.localCandidates(spark, ds, cfg))
    distCandidates = cands.size
    distCandidateKeys = cands

    val (offset, totalEdges) = tracer.span(DistOffsets) {
      val sizes = ds.select(col("id"), size(col("src")).as("e"))
        .collect().map(r => (r.getLong(0), r.getInt(1))).sortBy(_._1)
      val off = mutable.Map.empty[Long, Int]
      var acc = 0
      sizes.foreach { case (id, e) => off(id) = acc; acc += e }
      (off, acc)
    }

    val covers = tracer.span(DistCover)(DistTed.coverDS(spark, ds, cands).collect())
    distCoverRows = covers.length

    val (patterns, coverageCount) = tracer.span(DistSelect) {
      val byCode = covers.groupBy(_.code)
      val ordered = cands.filter(byCode.contains)
      val coverSets: IndexedSeq[Array[Int]] = ordered.toIndexedSeq.map { c =>
        byCode(c).flatMap(pc => pc.edges.map(_ + offset(pc.graph_id))).sorted
      }
      val (chosen, cov) = greedy(coverSets, cfg.k, totalEdges)
      val ps = chosen.map { ci =>
        val code = DfsCode.parse(ordered(ci))
        Pattern(code, DfsCode.toGraph(code), coverSets(ci), byCode(ordered(ci)).length)
      }
      (ps, cov)
    }
    RunResult("DistTED", patterns, coverageCount, totalEdges,
      (System.nanoTime() - t0) / 1000000L, cands.size.toLong, 0L, 0L, timedOut = false)
  }
}
