package repro.sparkstream

import repro.{Oracle, SparkSpec}
import repro.core.{Fingerprinter, FingerprintSpec, Labeled}
import repro.stream.Datasets

class WindowFingerprintsSpec extends SparkSpec {

  private lazy val stream = Datasets.stagger.build(3)
  private val w = 50

  test("moment fingerprints per window match the DuckDB oracle") {
    val small = stream.copy(obs = stream.obs.take(500), conceptIds = stream.conceptIds.take(500))
    val df = WindowFingerprints.toDf(spark, small)
    val featureCols = (0 until small.numFeatures).map(j => s"x$j")
    val moments = WindowFingerprints.momentFingerprints(df, w, featureCols)
    Oracle.assertEquivalent(
      moments,
      WindowFingerprints.momentOracleSql(w, featureCols),
      "obs" -> df,
    )
  }

  test("distributed full fingerprints equal the sequential Fingerprinter") {
    import spark.implicits._
    val small = stream.copy(obs = stream.obs.take(300), conceptIds = stream.conceptIds.take(300))
    val spec = FingerprintSpec.full(small.numFeatures).copy(includeShapley = false)
    val rows = WindowFingerprints.toRows(small).toDS()
    val fps = WindowFingerprints.fingerprints(spark, rows, w, spec)
      .collect().sortBy(_.windowId)

    assert(fps.length == 6)
    fps.foreach { wf =>
      val window = small.obs.slice((wf.windowId * w).toInt, ((wf.windowId + 1) * w).toInt)
        .map(o => Labeled(o.x, o.y, -1))
      val expected = Fingerprinter.make(spec, window, None)
      assert(wf.fingerprint.length == expected.length)
      wf.fingerprint.zip(expected).zipWithIndex.foreach { case ((got, exp), i) =>
        assert(math.abs(got - exp) < 1e-9, s"dim ${spec.dimNames(i)}: $got vs $exp")
      }
    }
  }

  test("toDf exposes one column per feature plus ts/y") {
    val df = WindowFingerprints.toDf(spark, stream.copy(obs = stream.obs.take(50),
      conceptIds = stream.conceptIds.take(50)))
    assert(df.columns.toSeq == Seq("streamId", "ts", "y", "x0", "x1", "x2"))
    assert(df.count() == 50)
  }
}
