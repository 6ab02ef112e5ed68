package repro.enumeration

import scala.collection.mutable
import repro.graph._

/** One embedding of a pattern into database graph `graphIdx`:
  * `vmap(p)` = data vertex imaging pattern vertex p, `eids(t)` = data edge
  * id imaging the t-th code edge.
  */
final case class Emb(graphIdx: Int, vmap: Array[Int], eids: Array[Int])

/** A node of the gSpan search space (Figure 5 of the paper): a pattern in
  * canonical (minimum) DFS code form together with every embedding into
  * the database. Cover sets (Definition 2) fall out of the embeddings.
  */
final class PatternNode(
    val code: Vector[CodeEdge],
    val rmPath: List[Int],
    val nVerts: Int,
    val embeddings: Array[Emb],
) {
  def numEdges: Int = code.length

  lazy val key: String = DfsCode.key(code)

  lazy val graph: LabeledGraph = DfsCode.toGraph(code)

  /** Distinct database graph indices containing this pattern, ascending. */
  lazy val graphIds: Array[Int] = PatternNode.sortedDistinct(embeddings.map(_.graphIdx))

  def support: Int = graphIds.length

  private var coverCache: Array[Int] = _

  /** Cover set over the whole database as sorted distinct global edge ids:
    * `Cov(p, D) = union over embeddings of their edge images`.
    *
    * Embeddings arrive grouped by ascending graph index and each graph owns
    * a contiguous range of global ids, so sorting every graph's run of edge
    * ids sorts the whole array; out-of-order embeddings fall back to one
    * global sort.
    */
  def coverGlobal(db: GraphDb): Array[Int] = {
    if (coverCache == null) {
      var n = 0
      embeddings.foreach(n += _.eids.length)
      val out = new Array[Int](n)
      var runStart = 0
      var pos = 0
      var i = 0
      while (i < embeddings.length) {
        val emb = embeddings(i)
        if (i > 0 && emb.graphIdx != embeddings(i - 1).graphIdx) {
          java.util.Arrays.sort(out, runStart, pos)
          runStart = pos
        }
        val off = db.edgeOffset(emb.graphIdx)
        var t = 0
        while (t < emb.eids.length) { out(pos) = off + emb.eids(t); pos += 1; t += 1 }
        i += 1
      }
      java.util.Arrays.sort(out, runStart, pos)
      coverCache = PatternNode.sortedDistinct(out)
    }
    coverCache
  }

  def coverage(db: GraphDb): Int = coverGlobal(db).length
}

object PatternNode {

  /** The distinct values of `a`, ascending. Sorts `a` in place unless it
    * is sorted already; returns `a` itself when nothing repeats.
    */
  private def sortedDistinct(a: Array[Int]): Array[Int] = {
    var i = 1
    while (i < a.length && a(i - 1) <= a(i)) i += 1
    if (i < a.length) java.util.Arrays.sort(a)
    var m = 0
    i = 0
    while (i < a.length) {
      if (m == 0 || a(i) != a(m - 1)) { a(m) = a(i); m += 1 }
      i += 1
    }
    if (m == a.length) a else java.util.Arrays.copyOf(a, m)
  }
}

/** Thrown when an enumeration-driven algorithm exceeds its deadline; the
  * harness reports the run as INF like the paper's 10000 s limit.
  */
final class TedTimeout(val elapsedMillis: Long) extends RuntimeException(s"deadline exceeded after $elapsedMillis ms")

/** Database-wide subgraph enumeration by right-most extension with
  * canonical-code duplicate pruning — the substrate of ALL_g/ALL_t (gSpan
  * without support pruning) and FSG_g/FSG_t (with `minSupport`).
  *
  * @param minSupport minimum number of distinct graphs containing a
  *                   pattern (1 = enumerate everything); anti-monotone,
  *                   so pruning below it is exact.
  */
final class Enumerator(
    val db: GraphDb,
    val eMax: Int,
    val minSupport: Int = 1,
    val deadlineNanos: Long = Long.MaxValue,
) {
  private val startNanos = System.nanoTime()

  private def checkDeadline(): Unit =
    if (System.nanoTime() > deadlineNanos)
      throw new TedTimeout((System.nanoTime() - startNanos) / 1000000L)

  /** All 1-edge patterns, in canonical-tuple order. */
  def roots: IndexedSeq[PatternNode] = {
    val byTuple = mutable.Map.empty[CodeEdge, mutable.ArrayBuffer[Emb]]
    var gi = 0
    while (gi < db.numGraphs) {
      val g = db.graphs(gi)
      var e = 0
      while (e < g.numEdges) {
        var o = 0
        while (o < 2) {
          val u = if (o == 0) g.src(e) else g.dst(e)
          val v = if (o == 0) g.dst(e) else g.src(e)
          val lu = g.vertexLabel(u); val lv = g.vertexLabel(v)
          if (lu <= lv) {
            val ce = CodeEdge(0, 1, lu, g.edgeLabel(e), lv)
            byTuple.getOrElseUpdate(ce, mutable.ArrayBuffer.empty) +=
              Emb(gi, Array(u, v), Array(e))
          }
          o += 1
        }
        e += 1
      }
      gi += 1
    }
    byTuple.toIndexedSeq
      .sortBy(_._1)(CodeEdge.ordering)
      .map { case (ce, embs) => new PatternNode(Vector(ce), List(1, 0), 2, embs.toArray) }
      .filter(_.support >= minSupport)
  }

  /** Canonical children of `p`: every right-most extension grouped across
    * embeddings, kept iff its code is minimal (gSpan dedup) and its
    * support clears `minSupport`. Does not check `eMax` — callers stop
    * descending at `numEdges == eMax`.
    */
  def children(p: PatternNode): IndexedSeq[PatternNode] = {
    checkDeadline()
    // Each distinct extension code is judged once, when it first appears;
    // a rejected code maps to `Rejected` and builds no embedding.
    val byExt = new java.util.HashMap[CodeEdge, mutable.ArrayBuffer[Emb]]()
    p.embeddings.foreach { emb =>
      val g = db.graphs(emb.graphIdx)
      RightMost.foreachExtension(g, p.rmPath, p.nVerts, emb.vmap, emb.eids) { (ce, w, eid) =>
        var embs = byExt.get(ce)
        if (embs == null) {
          embs = if (CanonicalCode.isMin(p.code :+ ce)) mutable.ArrayBuffer.empty else Enumerator.Rejected
          byExt.put(ce, embs)
        }
        if (embs ne Enumerator.Rejected)
          embs += Emb(emb.graphIdx,
            if (w >= 0) RightMost.appended(emb.vmap, w) else emb.vmap, RightMost.appended(emb.eids, eid))
      }
    }
    val kept = mutable.ArrayBuffer.empty[(CodeEdge, mutable.ArrayBuffer[Emb])]
    byExt.forEach((ce, embs) => if (embs ne Enumerator.Rejected) kept += ce -> embs)
    kept
      .sortInPlaceBy(_._1)(CodeEdge.ordering)
      .iterator
      .map { case (ce, embs) =>
        val rm = if (ce.isForward) DfsCode.extendRmPath(p.rmPath, ce) else p.rmPath
        val nv = if (ce.isForward) p.nVerts + 1 else p.nVerts
        new PatternNode(p.code :+ ce, rm, nv, embs.toArray)
      }
      .filter(_.support >= minSupport)
      .toIndexedSeq
  }

  /** Depth-first traversal of the whole (support-pruned) search space up
    * to `eMax` edges — the one DFS behind TED, its baselines and VQF.
    * `visit` runs at every node; below `eMax`, `keep(parent, child)` then
    * judges every sibling before any is descended into (TED_PRM's rule).
    */
  def traverse(
      visit: PatternNode => Unit,
      keep: (PatternNode, PatternNode) => Boolean = (_, _) => true,
  ): Unit = {
    def walk(node: PatternNode): Unit = {
      visit(node)
      if (node.numEdges < eMax) children(node).filter(keep(node, _)).foreach(walk)
    }
    roots.foreach(walk)
  }

  /** Collect every pattern (the memory-hungry baseline path). */
  def collectAll(): IndexedSeq[PatternNode] = {
    val buf = mutable.ArrayBuffer.empty[PatternNode]
    traverse(buf += _)
    buf.toIndexedSeq
  }
}

object Enumerator {
  /** Marks an extension code whose pattern is not canonical. */
  private val Rejected = mutable.ArrayBuffer.empty[Emb]
}
