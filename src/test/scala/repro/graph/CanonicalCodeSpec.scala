package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}
import scala.util.Random
import repro.TestGraphs

class CanonicalCodeSpec extends AnyFunSuite {

  /** Run a ScalaCheck property under ScalaTest without the scalatestplus
    * bridge (not in the offline artifact set).
    */
  private def checkProp(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(60), p)
    assert(res.passed, res.status.toString)
  }

  private def key(g: LabeledGraph): String = DfsCode.key(CanonicalCode.minCodeOf(g))

  test("single edge: canonical orientation puts the smaller label first") {
    val g = LabeledGraph(0, Seq(5, 2), Seq((0, 1, 9)))
    assert(CanonicalCode.minCodeOf(g) == Vector(CodeEdge(0, 1, 2, 9, 5)))
  }

  test("code edge ordering: backward precedes forward") {
    val backward = CodeEdge(2, 0, 0, 0, 0)
    val forward = CodeEdge(2, 3, 0, 0, 0)
    assert(CodeEdge.ordering.compare(backward, forward) < 0)
  }

  test("code edge ordering: forward from deeper vertex first") {
    val fromDeep = CodeEdge(2, 3, 0, 0, 0)
    val fromRoot = CodeEdge(0, 3, 0, 0, 0)
    assert(CodeEdge.ordering.compare(fromDeep, fromRoot) < 0)
  }

  test("code edge ordering: label tie-break") {
    val a = CodeEdge(0, 1, 1, 0, 2)
    val b = CodeEdge(0, 1, 1, 0, 3)
    assert(CodeEdge.ordering.compare(a, b) < 0)
  }

  test("path of two edges has the expected canonical code") {
    // labels 1-0-1: canonical start is at an endpoint (label 1? root label
    // minimality drives the first tuple: min tuple is (0,1,0,0,1) starting
    // at the centre).
    val g = LabeledGraph(0, Seq(1, 0, 1), Seq((0, 1, 0), (1, 2, 0)))
    val code = CanonicalCode.minCodeOf(g)
    assert(code == Vector(CodeEdge(0, 1, 0, 0, 1), CodeEdge(0, 2, 0, 0, 1)))
  }

  test("triangle canonical code closes with a backward edge") {
    val g = LabeledGraph(0, Seq(0, 0, 0), Seq((0, 1, 0), (1, 2, 0), (2, 0, 0)))
    val code = CanonicalCode.minCodeOf(g)
    assert(code.length == 3)
    assert(code.count(!_.isForward) == 1)
    assert(!code.last.isForward)
  }

  test("minCodeOf reconstructs an isomorphic graph") {
    val rng = new Random(7)
    (1 to 20).foreach { _ =>
      val g = TestGraphs.randomConnected(rng, 6, 2, 3, 2)
      val rebuilt = DfsCode.toGraph(CanonicalCode.minCodeOf(g))
      assert(rebuilt.labelSignature == g.labelSignature)
      assert(repro.iso.SubIso.exists(rebuilt, g) && repro.iso.SubIso.exists(g, rebuilt))
    }
  }

  test("canonical code is invariant under vertex permutation (regression set)") {
    val rng = new Random(42)
    (1 to 50).foreach { i =>
      val g = TestGraphs.randomConnected(rng, 3 + rng.nextInt(5), rng.nextInt(4), 1 + rng.nextInt(3), 1 + rng.nextInt(2))
      val p = TestGraphs.permuted(g, rng)
      assert(key(g) == key(p), s"iteration $i: $g vs $p")
    }
  }

  test("canonical code is invariant under vertex permutation (property)") {
    val gen = for {
      n <- Gen.choose(3, 7)
      extra <- Gen.choose(0, 4)
      labels <- Gen.choose(1, 3)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield (n, extra, labels, seed)
    checkProp(Prop.forAll(gen) { case (n, extra, labels, seed) =>
      val rng = new Random(seed)
      val g = TestGraphs.randomConnected(rng, n, extra, labels)
      key(g) == key(TestGraphs.permuted(g, rng))
    })
  }

  test("different label multisets give different canonical codes") {
    val g1 = LabeledGraph(0, Seq(0, 0), Seq((0, 1, 0)))
    val g2 = LabeledGraph(0, Seq(0, 1), Seq((0, 1, 0)))
    assert(key(g1) != key(g2))
  }

  test("path vs star with same labels are distinguished") {
    val path = LabeledGraph(0, Seq(0, 0, 0, 0), Seq((0, 1, 0), (1, 2, 0), (2, 3, 0)))
    val star = LabeledGraph(0, Seq(0, 0, 0, 0), Seq((0, 1, 0), (0, 2, 0), (0, 3, 0)))
    assert(key(path) != key(star))
  }

  test("isMin accepts canonical codes and rejects others") {
    val rng = new Random(11)
    (1 to 20).foreach { _ =>
      val g = TestGraphs.randomConnected(rng, 5, 2, 2)
      val min = CanonicalCode.minCodeOf(g)
      assert(CanonicalCode.isMin(min))
    }
    // A deliberately non-canonical 1-edge code: larger label first.
    assert(!CanonicalCode.isMin(Vector(CodeEdge(0, 1, 3, 0, 1))))
  }

  test("isMin rejects a non-minimal multi-edge code") {
    // Path 0-0-1 encoded starting from the label-1 endpoint is not
    // minimal (the canonical form starts at a label-0 endpoint).
    val nonMin = Vector(CodeEdge(0, 1, 1, 0, 0), CodeEdge(1, 2, 0, 0, 0))
    assert(!CanonicalCode.isMin(nonMin))
  }

  /** A random valid DFS code of a connected subgraph of `g`: a random
    * right-most walk from a random oriented edge. Every prefix is a valid
    * DFS code too, canonical or not.
    */
  private def randomWalkCode(g: LabeledGraph, rng: Random, maxEdges: Int): Vector[CodeEdge] = {
    val e0 = rng.nextInt(g.numEdges)
    val (u, v) = if (rng.nextBoolean()) (g.src(e0), g.dst(e0)) else (g.dst(e0), g.src(e0))
    var code = Vector(CodeEdge(0, 1, g.vertexLabel(u), g.edgeLabel(e0), g.vertexLabel(v)))
    var vmap = Array(u, v)
    var eids = Array(e0)
    var rm = List(1, 0)
    var go = true
    while (go && code.length < maxEdges) {
      val exts = scala.collection.mutable.ArrayBuffer.empty[(CodeEdge, Int, Int)]
      RightMost.foreachExtension(g, rm, vmap.length, vmap, eids)((ce, w, eid) => exts += ((ce, w, eid)))
      if (exts.isEmpty) go = false
      else {
        val (ce, w, eid) = exts(rng.nextInt(exts.length))
        code :+= ce
        if (w >= 0) { vmap :+= w; rm = DfsCode.extendRmPath(rm, ce) }
        eids :+= eid
      }
    }
    code
  }

  test("projected isMin agrees with the minCodeOf oracle on random DFS codes") {
    val rng = new Random(2024)
    var accepted = 0
    var rejected = 0
    (1 to 500).foreach { i =>
      val g = TestGraphs.randomConnected(rng, 3 + rng.nextInt(6), rng.nextInt(4), 1 + rng.nextInt(3), 1 + rng.nextInt(2))
      val code = randomWalkCode(g, rng, 1 + rng.nextInt(8))
      (1 to code.length).foreach { n =>
        val prefix = code.take(n)
        val expected = CanonicalCode.minCodeOf(DfsCode.toGraph(prefix)) == prefix
        assert(CanonicalCode.isMin(prefix) == expected, s"code $i prefix $prefix")
        if (n > 1) { if (expected) accepted += 1 else rejected += 1 }
      }
    }
    // Multi-edge prefixes of both kinds, so the projected walk, not only
    // the one-edge shortcut, decides both ways.
    assert(accepted > 0 && rejected > 0, s"accepted $accepted, rejected $rejected")
  }

  test("DfsCode.key/parse round-trip") {
    val rng = new Random(3)
    (1 to 10).foreach { _ =>
      val code = CanonicalCode.minCodeOf(TestGraphs.randomConnected(rng, 6, 3, 3, 2))
      assert(DfsCode.parse(DfsCode.key(code)) == code)
    }
  }

  test("rmPath recomputation matches incremental maintenance") {
    val rng = new Random(5)
    (1 to 10).foreach { _ =>
      val code = CanonicalCode.minCodeOf(TestGraphs.randomConnected(rng, 6, 2, 2))
      var inc: List[Int] = List(1, 0)
      code.drop(1).foreach(e => if (e.isForward) inc = DfsCode.extendRmPath(inc, e))
      assert(inc == DfsCode.rmPath(code))
    }
  }

  test("toGraph preserves code edge order") {
    val code = Vector(CodeEdge(0, 1, 0, 0, 1), CodeEdge(1, 2, 1, 0, 2))
    val g = DfsCode.toGraph(code)
    assert(g.src.toSeq == Seq(0, 1) && g.dst.toSeq == Seq(1, 2))
    assert(g.vertexLabels.toSeq == Seq(0, 1, 2))
  }

  test("numVertices from code") {
    val code = Vector(CodeEdge(0, 1, 0, 0, 1), CodeEdge(1, 2, 1, 0, 2), CodeEdge(2, 0, 2, 0, 0))
    assert(DfsCode.numVertices(code) == 3)
  }
}
