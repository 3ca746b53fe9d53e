package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.EvalGrid
import repro.eval.tables.Tables

/** Reproduces the paper's Tables II–VI: runs each distinct grid cell once
  * as a Spark task, prints the tables, then the shape checks that fail;
  * exits non-zero if any does.
  * Usage: runMain repro.jobs.PaperTables
  */
object PaperTables {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("paper-tables")
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    val (outcomes, wallS) = try {
      val t0 = System.nanoTime()
      val os = EvalGrid.run(spark, Tables.cells)
      (os, (System.nanoTime() - t0) / 1e9)
    } finally spark.stop()
    println(f"grid: ${Tables.cells.size} cells, $wallS%.0f s wall on " +
      s"${Runtime.getRuntime.availableProcessors} cores")
    for (table <- Seq(Tables.tableII(), Tables.tableIII(outcomes), Tables.tableIV(outcomes),
        Tables.tableV(outcomes), Tables.tableVI(outcomes)))
      println(table)
    val failures = Tables.shapeFailures(outcomes)
    failures.foreach(f => println(s"shape check failed: $f"))
    if (failures.nonEmpty) sys.exit(1)
  }
}
