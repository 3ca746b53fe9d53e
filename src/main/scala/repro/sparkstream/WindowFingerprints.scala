package repro.sparkstream

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Fingerprinter, FingerprintSpec, Labeled}
import repro.stream.GeneratedStream

/** One observation as a flat row for the dataflow layer. */
final case class ObsRow(streamId: Int, ts: Long, features: Seq[Double], y: Int)

/** A per-window fingerprint vector keyed by tumbling-window id. */
final case class WindowFingerprint(streamId: Int, windowId: Long, fingerprint: Seq[Double])

/** Distributed fingerprint construction (repro hint: compute
  * meta-information vectors per Structured-Streaming window).
  *
  *  - [[momentFingerprints]] expresses the moment-family meta-information
  *    features as pure Spark SQL window aggregates (raw moments m1–m4 per
  *    feature), which the DuckDB oracle re-computes identically in tests.
  *  - [[fingerprints]] computes the *full* meta-information vector per
  *    window with the same [[Fingerprinter]] used by the sequential engine:
  *    `groupByKey` on (stream, window id), then `mapGroups` sorts each
  *    window's rows by ts — exact parity with the online fingerprint
  *    construction is asserted in tests.
  */
object WindowFingerprints {

  def toRows(stream: GeneratedStream, streamId: Int = 0): Seq[ObsRow] =
    stream.obs.zipWithIndex.map { case (o, i) =>
      ObsRow(streamId, i.toLong, o.x.toSeq, o.y)
    }

  def toDf(spark: SparkSession, stream: GeneratedStream): DataFrame = {
    import spark.implicits._
    val df = toRows(stream).toDF()
    val xs = (0 until stream.numFeatures).map(j => element_at(col("features"), j + 1) as s"x$j")
    df.select(df.columns.toSeq.filter(_ != "features").map(col) ++ xs: _*)
  }

  /** Raw-moment meta-information per tumbling window of `w` observations:
    * for each feature column c, columns `c_m1` … `c_m4` (E[c^k]) plus the
    * window size `n`. Expressed with identical SQL on Spark and DuckDB.
    */
  def momentFingerprints(df: DataFrame, w: Int, featureCols: Seq[String]): DataFrame = {
    val aggs = featureCols.flatMap { c =>
      Seq(
        avg(col(c)) as s"${c}_m1",
        avg(col(c) * col(c)) as s"${c}_m2",
        avg(col(c) * col(c) * col(c)) as s"${c}_m3",
        avg(col(c) * col(c) * col(c) * col(c)) as s"${c}_m4",
      )
    } :+ (count(lit(1)) as "n")
    df.withColumn("window_id", floor(col("ts") / w))
      .groupBy(col("window_id"))
      .agg(aggs.head, aggs.tail: _*)
  }

  /** The matching DuckDB SQL for [[momentFingerprints]] over a table named
    * `obs` with the same columns.
    */
  def momentOracleSql(w: Int, featureCols: Seq[String]): String = {
    // The oracle loads every column as VARCHAR; cast explicitly.
    val cols = featureCols.flatMap { c =>
      val v = s"CAST($c AS DOUBLE)"
      Seq(
        s"avg($v) AS ${c}_m1",
        s"avg($v * $v) AS ${c}_m2",
        s"avg($v * $v * $v) AS ${c}_m3",
        s"avg($v * $v * $v * $v) AS ${c}_m4",
      )
    } :+ "count(*) AS n"
    s"""SELECT CAST(FLOOR(CAST(ts AS DOUBLE) / $w) AS BIGINT) AS window_id, ${cols.mkString(", ")}
       |FROM obs GROUP BY 1""".stripMargin
  }

  /** Full fingerprint vector per tumbling window, computed distributively:
    * window rows are grouped, ordered by ts, and distilled with the same
    * meta-information functions as the sequential engine.
    */
  def fingerprints(
      spark: SparkSession,
      rows: Dataset[ObsRow],
      w: Int,
      spec: FingerprintSpec,
  ): Dataset[WindowFingerprint] = {
    import spark.implicits._
    rows
      .groupByKey(r => (r.streamId, r.ts / w))
      .mapGroups { (key: (Int, Long), it: Iterator[ObsRow]) =>
        // A stream trace carries no predictions, so every row's l is −1.
        val window = it.toIndexedSeq.sortBy(_.ts).map(r => Labeled(r.features.toArray, r.y, -1))
        WindowFingerprint(key._1, key._2, Fingerprinter.make(spec, window, None).toSeq)
      }
  }
}
