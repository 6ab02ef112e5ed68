package repro.dist

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.data.MoleculeGen
import repro.graph.{GraphDb, LabeledGraph}

/** One database graph as a Spark row: parallel primitive arrays, the same
  * layout as [[LabeledGraph]]. The whole database is a `Dataset[GraphRow]`
  * so graphs distribute across partitions and the expensive phases
  * (enumeration, cover evaluation) run as scans.
  */
final case class GraphRow(
    id: Long,
    vlabels: Array[Int],
    src: Array[Int],
    dst: Array[Int],
    elabels: Array[Int],
)

/** One edge of one graph — the normalized relational view used for the
  * Spark SQL aggregations (dataset statistics, supports, coverage) that
  * the DuckDB oracle cross-checks.
  */
final case class EdgeRow(
    graph_id: Long,
    edge_id: Int,
    src: Int,
    dst: Int,
    src_label: Int,
    dst_label: Int,
    edge_label: Int,
)

final case class VertexRow(graph_id: Long, vertex_id: Int, label: Int)

/** Codecs between the driver-side [[GraphDb]] and the Spark encodings,
  * plus the Table-2 statistics job.
  */
object GraphFrames {

  def toRow(g: LabeledGraph): GraphRow = GraphRow(g.id, g.vertexLabels, g.src, g.dst, g.edgeLabels)

  /** Decode a row, rejecting what [[LabeledGraph]] assumes never happens:
    * an out-of-range vertex index, a repeated undirected edge or a
    * disconnected graph each throw IllegalArgumentException naming the
    * graph id.
    */
  def toGraph(r: GraphRow): LabeledGraph = {
    val n = r.vlabels.length
    val m = r.src.length
    require(r.dst.length == m && r.elabels.length == m,
      s"graph ${r.id}: edge arrays disagree (${r.src.length}/${r.dst.length}/${r.elabels.length})")
    val pairs = new Array[Long](m)
    var e = 0
    while (e < m) {
      val u = r.src(e); val v = r.dst(e)
      require(u >= 0 && u < n && v >= 0 && v < n,
        s"graph ${r.id}: edge $e ($u, $v) names a vertex outside 0 until $n")
      pairs(e) = math.min(u, v).toLong * n + math.max(u, v)
      e += 1
    }
    java.util.Arrays.sort(pairs)
    e = 1
    while (e < m) {
      require(pairs(e) != pairs(e - 1),
        s"graph ${r.id}: duplicate edge (${pairs(e) / n}, ${pairs(e) % n})")
      e += 1
    }
    val g = new LabeledGraph(r.id, r.vlabels, r.src, r.dst, r.elabels)
    require(g.isConnected, s"graph ${r.id} is not connected")
    g
  }

  def toDS(spark: SparkSession, db: GraphDb): Dataset[GraphRow] = {
    import spark.implicits._
    spark.createDataset(db.graphs.map(toRow))
  }

  /** Distributed generation: one task per slice of graph ids, each graph
    * produced deterministically from (params, id) — no driver round trip.
    */
  def generateDS(spark: SparkSession, p: MoleculeGen.Params, partitions: Int = 16): Dataset[GraphRow] = {
    import spark.implicits._
    spark.range(0, p.nGraphs.toLong, 1, partitions).map(i => toRow(MoleculeGen.graph(p, i)))
  }

  /** Collect a Dataset back into a driver GraphDb, ordered by graph id so
    * global edge ids are deterministic.
    */
  def collectDb(ds: Dataset[GraphRow]): GraphDb =
    new GraphDb(ds.collect().sortBy(_.id).map(toGraph).toIndexedSeq)

  def edgeDF(spark: SparkSession, ds: Dataset[GraphRow]): DataFrame = {
    import spark.implicits._
    ds.flatMap { r =>
      r.src.indices.map { e =>
        EdgeRow(r.id, e, r.src(e), r.dst(e), r.vlabels(r.src(e)), r.vlabels(r.dst(e)), r.elabels(e))
      }
    }.toDF()
  }

  def vertexDF(spark: SparkSession, ds: Dataset[GraphRow]): DataFrame = {
    import spark.implicits._
    ds.flatMap(r => r.vlabels.indices.map(v => VertexRow(r.id, v, r.vlabels(v)))).toDF()
  }

  /** Table-2 statistics (E_max, V_max, E_avg, V_avg, |D|) as a one-row
    * DataFrame computed relationally — per-graph counts then a global
    * aggregate — so the DuckDB oracle can diff it.
    */
  def stats(spark: SparkSession, ds: Dataset[GraphRow]): DataFrame = {
    val edges = edgeDF(spark, ds).groupBy("graph_id").agg(count("*").as("e_cnt"))
    val verts = vertexDF(spark, ds).groupBy("graph_id").agg(count("*").as("v_cnt"))
    edges
      .join(verts, "graph_id")
      .agg(
        max("e_cnt").cast("long").as("e_max"),
        max("v_cnt").cast("long").as("v_max"),
        round(avg("e_cnt"), 1).as("e_avg"),
        round(avg("v_cnt"), 1).as("v_avg"),
        count("*").cast("long").as("d"),
      )
  }
}
