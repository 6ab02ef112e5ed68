package repro.perfbench

import repro.core.RunResult
import repro.cover.MaxCover
import repro.graph.{CanonicalCode, GraphDb}
import repro.iso.SubIso

/** Checks one method result against the database, independently of the
  * enumeration that produced it. Pattern sets are not pinned: any result
  * passes whose patterns are valid and whose covers and coverage are what
  * subgraph isomorphism says they are.
  */
object OutputCheck {

  /** Problems found, empty when the result is correct:
    *  - the run did not time out and covers the whole database;
    *  - each pattern is connected, has at most `eMax` edges and is in
    *    canonical (minimum DFS code) form;
    *  - each cover equals the offset union of `SubIso.coverSet` over the
    *    database graphs;
    *  - the coverage equals `MaxCover.coverageOf` of the covers.
    */
  def problems(r: RunResult, db: GraphDb, eMax: Int): Seq[String] = {
    val out = Seq.newBuilder[String]
    if (r.timedOut) out += "timed out"
    if (r.totalEdges != db.totalEdges) out += s"totalEdges ${r.totalEdges} != ${db.totalEdges}"
    if (r.patterns.isEmpty) out += "no patterns"
    r.patterns.foreach { p =>
      val g = p.graph
      if (!g.isConnected) out += s"${p.key}: not connected"
      if (p.numEdges > eMax) out += s"${p.key}: ${p.numEdges} edges > E_max $eMax"
      if (p.numEdges < 1 || CanonicalCode.minCodeOf(g) != p.code) out += s"${p.key}: not canonical"
      else if (!java.util.Arrays.equals(expectedCover(p.graph, db), p.cover)) out += s"${p.key}: cover differs from SubIso"
    }
    val cov = MaxCover.coverageOf(r.patterns.map(_.cover))
    if (cov != r.coverage) out += s"coverage ${r.coverage} != coverageOf(covers) $cov"
    out.result()
  }

  /** Cov(p, D) as sorted global edge ids, from subgraph isomorphism. */
  def expectedCover(p: repro.graph.LabeledGraph, db: GraphDb): Array[Int] = {
    val b = Array.newBuilder[Int]
    var gi = 0
    while (gi < db.numGraphs) {
      val off = db.edgeOffset(gi)
      SubIso.coverSet(p, db.graphs(gi)).foreach(e => b += off + e)
      gi += 1
    }
    b.result()
  }

  /** Pattern identity of a result, order-free. */
  def keys(r: RunResult): Seq[String] = r.patterns.map(_.key).sorted
}
