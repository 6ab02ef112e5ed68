package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.Vqf
import repro.data.MoleculeGen
import repro.exp.Experiments
import repro.exp.Experiments.{bench => B}

/** spark-submit entrypoint for the reproduced evaluation tables:
  *   spark-submit --class repro.jobs.Main repro.jar <table>
  *   sbt "runMain repro.jobs.Main <table>"
  */
object Main {
  def main(args: Array[String]): Unit = args match {
    case Array("table2") => table2()
    case Array("tables34") => tables34()
    case Array("tables56") => tables56()
    case Array("table7") => table7()
    case Array("methods") => methods()
    case _ =>
      System.err.println("usage: repro.jobs.Main <table2|tables34|tables56|table7|methods>")
      sys.exit(2)
  }

  private def withSession(name: String)(body: SparkSession => Unit): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try body(spark) finally spark.stop()
  }

  /** Table 2 — dataset statistics of the synthetic AIDS/eMol/PubChem. */
  private def table2(): Unit = withSession("ted-table2") { spark =>
    println("Table 2: Datasets (synthetic, scaled — DESIGN.md §4)")
    println(f"${"Dataset"}%-10s ${"E_max"}%6s ${"V_max"}%6s ${"E_avg"}%6s ${"V_avg"}%6s ${"|D|"}%6s")
    Experiments.table2(spark, B).foreach { s =>
      println(f"${s.name}%-10s ${s.eMax}%6d ${s.vMax}%6d ${s.eAvg}%6.1f ${s.vAvg}%6.1f ${s.d}%6d")
    }
  }

  /** Tables 3 & 4 — PES-Index size and maintenance time, from one set of runs. */
  private def tables34(): Unit = {
    val rows = Experiments.tables34(B)
    println("Table 3: Size of PES-Index")
    println(f"${"Dataset"}%-12s ${"Index KB"}%10s ${"Index/Graphs %%"}%16s")
    rows.foreach(r => println(f"${r.dataset}%-12s ${r.indexKB}%10.1f ${r.indexPctOfData}%16.2f"))
    println("Table 4: Maintenance Time of PES-Index")
    println(f"${"Dataset"}%-12s ${"Index Time s"}%13s ${"Index/Total %%"}%15s")
    rows.foreach(r => println(f"${r.dataset}%-12s ${r.indexTimeS}%13.2f ${r.indexPctOfTotal}%15.2f"))
  }

  /** Tables 5 & 6 — VQF queries, steps and patterns used per method. */
  private def tables56(): Unit = {
    val aids = MoleculeGen.db(MoleculeGen.aidsLike(B.aidsSmall))
    val pub  = MoleculeGen.db(MoleculeGen.pubChemLike(B.pubSmall))
    println("Tables 5-6: VQF queries / patterns used (k=12 pattern sets)")
    println(f"${"Query"}%-14s ${"|E|"}%4s ${"FS"}%4s ${"CAT"}%4s ${"TED"}%4s  infrequent-used")
    for ((name, db) <- Seq("PubChem" -> pub, "AIDS" -> aids);
         r <- Experiments.tables56(name, db, k = 12, eMax = B.eMax, supMin = B.supMin,
           timeoutMillis = B.timeoutMillis)) {
      println(f"${r.query}%-14s ${r.queryEdges}%4d ${r.fsUsed}%4d ${r.catapultUsed}%4d ${r.tedUsed}%4d  ${if (r.tedUsesInfrequent) "Yes" else "No"}")
    }
  }

  /** Table 7 — patterns with (synthetic) biological importance. */
  private def table7(): Unit = {
    val db = MoleculeGen.db(MoleculeGen.pubChemLike(B.pubSmall))
    val repo = Vqf.exactRepository(MoleculeGen.db(MoleculeGen.fragmentRepo(8000, seed = 99)))
    println("Table 7: Patterns with Biological Importance (synthetic repo)")
    Experiments.table7(db, repo, k = 12, eMax = B.eMax, supMin = B.supMin,
      minEdges = 3, timeoutMillis = B.timeoutMillis).foreach { r =>
      println(f"${r.method}%-10s ${r.important}%3d of ${r.total}%d")
    }
  }

  /** Supplementary — the Figure 9/11/13/14/15 method comparison, plus the
    * distributed TED job.
    */
  private def methods(): Unit = withSession("ted-comparison") { spark =>
    val db = MoleculeGen.db(MoleculeGen.aidsLike(B.aidsSmall))
    println(s"Method comparison on AIDS${B.aidsSmall} (k=${B.k}, E_max=${B.eMax})")
    Experiments.methodComparison(db, B.k, B.eMax, B.supMin, B.timeoutMillis)
      .foreach(r => println(Experiments.renderResult(r)))
    println(Experiments.renderResult(Experiments.distComparison(spark, db, B.k, B.eMax, B.timeoutMillis)))
  }
}
