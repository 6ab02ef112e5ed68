package repro.dist

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.{MoleculeGen, SampleDb}

class GraphFramesSpec extends SparkSpec {

  private lazy val db = SampleDb.db
  private lazy val ds = GraphFrames.toDS(spark, db)

  test("GraphRow round-trips through the codec") {
    val back = GraphFrames.collectDb(ds)
    assert(back.numGraphs == db.numGraphs)
    back.graphs.zip(db.graphs).foreach { case (a, b) =>
      assert(a.id == b.id && a.labelSignature == b.labelSignature)
    }
  }

  private def decodeError(row: GraphRow): String =
    intercept[IllegalArgumentException](GraphFrames.toGraph(row)).getMessage

  test("decoding rejects an out-of-range vertex index") {
    val msg = decodeError(GraphRow(41L, Array(0, 1, 2), Array(0, 1), Array(1, 3), Array(0, 0)))
    assert(msg.contains("graph 41") && msg.contains("outside"), msg)
  }

  test("decoding rejects a duplicate undirected edge") {
    val msg = decodeError(GraphRow(42L, Array(0, 1, 2), Array(0, 1, 1), Array(1, 2, 0), Array(0, 0, 0)))
    assert(msg.contains("graph 42") && msg.contains("duplicate edge (0, 1)"), msg)
  }

  test("decoding rejects a disconnected graph") {
    val msg = decodeError(GraphRow(43L, Array(0, 1, 2, 3), Array(0, 2), Array(1, 3), Array(0, 0)))
    assert(msg.contains("graph 43") && msg.contains("not connected"), msg)
  }

  test("edgeDF has one row per edge with endpoint labels") {
    val edf = GraphFrames.edgeDF(spark, ds)
    assert(edf.count() == db.totalEdges)
    val g1cc = edf.filter(col("graph_id") === 1 &&
      col("src_label") === SampleDb.C && col("dst_label") === SampleDb.C).count()
    assert(g1cc == 6) // the C6 ring of G1
  }

  test("vertexDF has one row per vertex") {
    assert(GraphFrames.vertexDF(spark, ds).count() == db.totalVertices)
  }

  test("generateDS is deterministic and matches driver-side generation") {
    val p = MoleculeGen.aidsLike(30)
    val distDb = GraphFrames.collectDb(GraphFrames.generateDS(spark, p, partitions = 4))
    val localDb = MoleculeGen.db(p)
    assert(distDb.numGraphs == localDb.numGraphs)
    distDb.graphs.zip(localDb.graphs).foreach { case (a, b) =>
      assert(a.labelSignature == b.labelSignature)
    }
  }

  test("stats matches the DuckDB oracle (Table 2 aggregation)") {
    val statsDf = GraphFrames.stats(spark, ds)
    val edges = GraphFrames.edgeDF(spark, ds).groupBy("graph_id").agg(count("*").as("e_cnt"))
    val verts = GraphFrames.vertexDF(spark, ds).groupBy("graph_id").agg(count("*").as("v_cnt"))
    Oracle.assertEquivalent(
      statsDf,
      """SELECT max(e_cnt)::BIGINT AS e_max, max(v_cnt)::BIGINT AS v_max,
        |       round(avg(e_cnt), 1) AS e_avg, round(avg(v_cnt), 1) AS v_avg,
        |       count(*)::BIGINT AS d
        |FROM (SELECT e.graph_id, e.e_cnt::DOUBLE AS e_cnt, v.v_cnt::DOUBLE AS v_cnt
        |      FROM per_graph_edges e JOIN per_graph_verts v USING (graph_id))""".stripMargin,
      "per_graph_edges" -> edges,
      "per_graph_verts" -> verts,
    )
  }

  test("stats values are correct on the hand-built sample db") {
    val row = GraphFrames.stats(spark, ds).collect()(0)
    assert(row.getLong(0) == 8)  // e_max: G1
    assert(row.getLong(1) == 8)  // v_max: G1
    assert(row.getLong(4) == 4)  // |D|
  }

  test("per-graph edge counts match the DuckDB oracle") {
    val perGraph = GraphFrames.edgeDF(spark, ds)
      .groupBy("graph_id").agg(count("*").as("edges"))
    Oracle.assertEquivalent(
      perGraph,
      "SELECT graph_id, count(*) AS edges FROM edges GROUP BY graph_id",
      "edges" -> GraphFrames.edgeDF(spark, ds),
    )
  }

  test("molecule generator stats land near Table-2 shape targets") {
    val p = MoleculeGen.aidsLike(200)
    val row = GraphFrames.stats(spark, GraphFrames.generateDS(spark, p)).collect()(0)
    val eAvg = row.getDouble(2); val vAvg = row.getDouble(3)
    assert(math.abs(vAvg - 25.4) < 4.0, s"v_avg $vAvg vs AIDS 25.4")
    assert(eAvg >= vAvg - 1, s"e_avg $eAvg should exceed v_avg - 1 (rings)")
  }
}
