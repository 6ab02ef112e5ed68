package repro.graph

/** gSpan right-most extension (Definition 6 of the paper), shared by the
  * canonical-form construction (embedding a pattern into itself) and the
  * database enumerator (embedding a pattern into data graphs).
  */
object RightMost {

  @inline private def mapped(vmap: Array[Int], w: Int): Boolean = {
    var i = 0
    while (i < vmap.length) { if (vmap(i) == w) return true; i += 1 }
    false
  }

  @inline private def usesEdge(eids: Array[Int], e: Int): Boolean = {
    var i = 0
    while (i < eids.length) { if (eids(i) == e) return true; i += 1 }
    false
  }

  /** `a` with `x` appended: a vertex map or edge-id list grown by one
    * extension.
    */
  def appended(a: Array[Int], x: Int): Array[Int] = {
    val out = java.util.Arrays.copyOf(a, a.length + 1)
    out(a.length) = x
    out
  }

  /** Enumerate every right-most extension of one embedding.
    *
    * @param g      data graph the embedding maps into
    * @param rmPath right-most path of the pattern, head = right-most vertex
    * @param nVerts number of pattern vertices
    * @param vmap   pattern vertex -> data vertex (injective)
    * @param eids   data edge ids imaging the code edges, in code order
    * @param f      callback (codeEdge, newDataVertex or -1 for backward,
    *               dataEdgeId)
    *
    * Backward extensions run from the right-most vertex to a vertex on the
    * right-most path whose connecting data edge is not yet part of the
    * embedding (vertex maps are injective, so a data edge can only image
    * the one pattern edge between its endpoints' preimages). Forward
    * extensions run from any right-most-path vertex to an unmapped data
    * neighbor, introducing pattern vertex `nVerts`.
    */
  def foreachExtension(
      g: LabeledGraph,
      rmPath: List[Int],
      nVerts: Int,
      vmap: Array[Int],
      eids: Array[Int],
  )(f: (CodeEdge, Int, Int) => Unit): Unit = {
    val r  = rmPath.head
    val fr = vmap(r)
    var xs = rmPath.tail
    while (xs.nonEmpty) {
      val x = xs.head
      val e = g.edgeBetween(fr, vmap(x))
      if (e >= 0 && !usesEdge(eids, e))
        f(CodeEdge(r, x, g.vertexLabel(fr), g.edgeLabel(e), g.vertexLabel(vmap(x))), -1, e)
      xs = xs.tail
    }
    xs = rmPath
    while (xs.nonEmpty) {
      val x  = xs.head
      val fx = vmap(x)
      g.foreachNeighbor(fx) { (w, e) =>
        if (!mapped(vmap, w))
          f(CodeEdge(x, nVerts, g.vertexLabel(fx), g.edgeLabel(e), g.vertexLabel(w)), w, e)
      }
      xs = xs.tail
    }
  }
}

/** gSpan canonical form: the minimum DFS code of a connected graph, built
  * by the projection-based greedy — maintain every self-embedding
  * consistent with the minimal prefix and take the globally minimal next
  * extension. Backward extensions always precede forward ones in the
  * tuple order, so no back edge is ever skipped and the construction
  * never dead-ends.
  */
object CanonicalCode {

  private final case class SelfEmb(vmap: Array[Int], eids: Array[Int])

  def minCodeOf(g: LabeledGraph): Vector[CodeEdge] = {
    require(g.numEdges >= 1, "canonical code of an edgeless graph is undefined")
    val ord = CodeEdge.ordering

    var first: CodeEdge = null
    var embs: List[SelfEmb] = Nil
    var e = 0
    while (e < g.numEdges) {
      var o = 0
      while (o < 2) {
        val u = if (o == 0) g.src(e) else g.dst(e)
        val v = if (o == 0) g.dst(e) else g.src(e)
        val ce = CodeEdge(0, 1, g.vertexLabel(u), g.edgeLabel(e), g.vertexLabel(v))
        val c = if (first == null) -1 else ord.compare(ce, first)
        if (c < 0) { first = ce; embs = List(SelfEmb(Array(u, v), Array(e))) }
        else if (c == 0) embs ::= SelfEmb(Array(u, v), Array(e))
        o += 1
      }
      e += 1
    }

    var code   = Vector(first)
    var rm     = List(1, 0)
    var nVerts = 2
    while (code.length < g.numEdges) {
      var best: CodeEdge = null
      var bestEmbs: List[SelfEmb] = Nil
      embs.foreach { se =>
        RightMost.foreachExtension(g, rm, nVerts, se.vmap, se.eids) { (ce, w, eid) =>
          val c = if (best == null) -1 else ord.compare(ce, best)
          if (c <= 0) {
            val nv = if (w >= 0) se.vmap :+ w else se.vmap
            val ne = se.eids :+ eid
            if (c < 0) { best = ce; bestEmbs = List(SelfEmb(nv, ne)) }
            else bestEmbs ::= SelfEmb(nv, ne)
          }
        }
      }
      assert(best != null, s"min-code construction dead-ended on $g")
      code :+= best
      if (best.isForward) { rm = DfsCode.extendRmPath(rm, best); nVerts += 1 }
      embs = bestEmbs
    }
    code
  }

  /** gSpan duplicate-pruning test: is `code` its pattern's canonical form?
    *
    * The projected check of gSpan (Yan & Han, ICDM'02, §4): walk `code`
    * against the pattern's own self-embeddings, keeping at each position
    * only those that realise `code(pos)`, and stop at the first position
    * where some extension sorts below `code(pos)`. Agrees with
    * `minCodeOf(DfsCode.toGraph(code)) == code`, the oracle, on every
    * valid DFS code, but rarely builds the whole minimum code.
    */
  def isMin(code: Vector[CodeEdge]): Boolean = {
    val first = code(0)
    if (code.length == 1) return first.li <= first.lj
    val g = DfsCode.toGraph(code)
    val ord = CodeEdge.ordering

    var embs: List[SelfEmb] = Nil
    var e = 0
    while (e < g.numEdges) {
      var o = 0
      while (o < 2) {
        val u = if (o == 0) g.src(e) else g.dst(e)
        val v = if (o == 0) g.dst(e) else g.src(e)
        val c = ord.compare(CodeEdge(0, 1, g.vertexLabel(u), g.edgeLabel(e), g.vertexLabel(v)), first)
        if (c < 0) return false
        if (c == 0) embs ::= SelfEmb(Array(u, v), Array(e))
        o += 1
      }
      e += 1
    }

    var rm     = List(1, 0)
    var nVerts = 2
    var pos    = 1
    while (pos < code.length) {
      val target = code(pos)
      var smaller = false
      var next: List[SelfEmb] = Nil
      var it = embs
      while (!smaller && it.nonEmpty) {
        val se = it.head
        RightMost.foreachExtension(g, rm, nVerts, se.vmap, se.eids) { (ce, w, eid) =>
          val c = ord.compare(ce, target)
          if (c < 0) smaller = true
          else if (c == 0 && !smaller)
            next ::= SelfEmb(if (w >= 0) RightMost.appended(se.vmap, w) else se.vmap, RightMost.appended(se.eids, eid))
        }
        it = it.tail
      }
      // No realisation of code(pos) means `code` is not a DFS code of its
      // own graph, so it cannot be the minimum one either.
      if (smaller || next.isEmpty) return false
      if (target.isForward) { rm = DfsCode.extendRmPath(rm, target); nVerts += 1 }
      embs = next
      pos += 1
    }
    true
  }
}
