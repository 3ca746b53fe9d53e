package repro.sparkstream

import java.io.File
import java.net.URLClassLoader

import org.apache.spark.api.java.Optional
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.{GroupStateTimeout, TestGroupState}
import repro.SparkSpec
import repro.core.{FiCSUM, FiCSUMConfig, FingerprintSpec}
import repro.stream.{Datasets, GeneratedStream}

class StreamingDriftSpec extends SparkSpec {

  /** The events of the sequential engine over the first `n` rows of `stream`, keyed `streamId`. */
  private def sequential(stream: GeneratedStream, n: Int, cfg: FiCSUMConfig, seed: Long,
      streamId: Int = 0): (Seq[DriftEvent], FiCSUM) = {
    val engine = new FiCSUM("FiCSUM", stream.numFeatures, stream.numClasses,
      FingerprintSpec.full(stream.numFeatures), cfg, seed)
    val events = stream.obs.take(n).zipWithIndex.map { case (o, i) =>
      val before = engine.driftCount
      val (p, m) = engine.step(o.x, o.y)
      DriftEvent(streamId, i.toLong, p, m, engine.driftCount > before)
    }
    (events, engine)
  }

  test("stateful streaming drift operator matches the sequential engine") {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext

    val stream = Datasets.stagger.build(2)
    val n = 1200
    val rows = WindowFingerprints.toRows(
      stream.copy(obs = stream.obs.take(n), conceptIds = stream.conceptIds.take(n)))

    val cfg = FiCSUMConfig()
    val input = MemoryStream[ObsRow]
    val events = StreamingDrift.detect(spark, input.toDS(), stream.numFeatures,
      stream.numClasses, cfg, seed = 9)
    val query = events.writeStream
      .format("memory").queryName("drift_out").outputMode("append").start()

    try {
      // Feed in several micro-batches so engine state round-trips through
      // the state store between batches.
      rows.grouped(300).foreach { chunk =>
        input.addData(chunk)
        query.processAllAvailable()
      }
    } finally query.stop()

    val got = spark.sql("select * from drift_out").as[DriftEvent].collect().sortBy(_.ts)
    assert(got.length == n)

    // Sequential reference with the identical config and seed.
    val (expected, engine) = sequential(stream, n, cfg, seed = 9)

    got.zip(expected).foreach { case (g, e) =>
      assert(g == e, s"divergence at ts=${g.ts}: $g vs $e")
    }
    assert(got.count(_.drift) == engine.driftCount)
  }

  test("property: processGroup's events do not depend on where micro-batches are cut") {
    import org.scalacheck.{Gen, Prop, Test => SCTest}
    // processGroup called directly, the engine's state bytes carried from
    // one batch to the next as the state store carries them.
    val stream = Datasets.stagger.build(2)
    val n = 1000
    val rows = WindowFingerprints.toRows(stream).take(n)
    val cfg = FiCSUMConfig()
    val (expected, _) = sequential(stream, n, cfg, seed = 9)
    val driftSteps = expected.filter(_.drift).map(_.ts.toInt)
    assert(driftSteps.nonEmpty)
    // Cuts at random points (1–25 batches), and in some cases also a cut
    // before each drift step and before the step after it.
    val cases = for {
      k <- Gen.choose(1, 25)
      random <- Gen.pick(k - 1, 1 until n)
      atDrifts <- Gen.oneOf(false, true)
    } yield (random.toSet ++ (if (atDrifts) driftSteps.flatMap(t => Seq(t, t + 1)) else Nil)).toSeq.sorted
    var driftCut = 0
    val prop = Prop.forAll(cases) { cuts =>
      if (driftSteps.forall(cuts.contains)) driftCut += 1
      var bytes = Optional.empty[Array[Byte]]()
      val got = (0 +: cuts).zip(cuts :+ n).flatMap { case (from, until) =>
        val state = TestGroupState.create[Array[Byte]](bytes, GroupStateTimeout.NoTimeout(), 0L, Optional.empty[Long](), false)
        val events = StreamingDrift.processGroup(0, rows.slice(from, until).iterator, state,
          stream.numFeatures, stream.numClasses, cfg, seed = 9).toSeq
        bytes = Optional.of(state.get)
        events
      }
      got == expected
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(20), prop)
    assert(result.passed, result.status.toString)
    assert(driftCut >= 1, s"cases cut at every drift step: $driftCut")
  }

  test("interleaved keys in random micro-batches each get their own sequential engine's events") {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext

    // Two keys, each a STAGGER stream of its own seed, their rows shuffled
    // together (each key's rows in order) and fed in four micro-batches:
    // two cuts at random and one just before a key's first drift step.
    val n = 1000
    val cfg = FiCSUMConfig()
    val streams = IndexedSeq(Datasets.stagger.build(2), Datasets.stagger.build(4))
    val expected = streams.indices.map(k => sequential(streams(k), n, cfg, seed = 9, streamId = k)._1)
    val rng = new scala.util.Random(5)
    val perKey = streams.indices.map(k => WindowFingerprints.toRows(streams(k), k).take(n).iterator)
    val rows = rng.shuffle(streams.indices.flatMap(k => Seq.fill(n)(k))).map(perKey(_).next())
    val drift = expected.flatten.find(_.drift).getOrElse(fail("no key drifts"))
    val atDrift = rows.indexWhere(r => r.streamId == drift.streamId && r.ts == drift.ts)
    val cuts = (atDrift +: rng.shuffle((1 until rows.length).filter(_ != atDrift).toVector).take(2)).sorted

    // One state partition, so both keys share one state store. A query fixes
    // its partition count when it starts, and each micro-batch commits every
    // partition's store: the session's 64 cost ~10 s over four batches.
    val partitions = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", 1L)
    val input = MemoryStream[ObsRow]
    val events = StreamingDrift.detect(spark, input.toDS(), streams(0).numFeatures,
      streams(0).numClasses, cfg, seed = 9)
    val query = try events.writeStream
      .format("memory").queryName("drift_keys").outputMode("append").start()
      finally spark.conf.set("spark.sql.shuffle.partitions", partitions)
    try {
      (0 +: cuts).zip(cuts :+ rows.length).foreach { case (from, until) =>
        input.addData(rows.slice(from, until))
        query.processAllAvailable()
      }
    } finally query.stop()

    val got = spark.sql("select * from drift_keys").as[DriftEvent].collect().toSeq
    streams.indices.foreach { k =>
      assert(got.filter(_.streamId == k).sortBy(_.ts) == expected(k), s"key $k")
    }
  }

  test("engine state round-trips when the repro classes sit in a child of Spark's class loader") {
    // As under spark-submit: Spark and Scala in one loader, the repro
    // classes in a child loader that Spark's own classes cannot see.
    val own = Seq(classOf[FiCSUM], classOf[StreamingDriftSpec])
      .map(c => new File(c.getProtectionDomain.getCodeSource.getLocation.toURI).getCanonicalFile)
    val libs = sys.props("java.class.path").split(File.pathSeparator).toSeq
      .map(new File(_).getCanonicalFile).filterNot(own.contains)
    assert(own.forall(_.isDirectory) && libs.nonEmpty)
    val sparkLoader = new URLClassLoader(libs.map(_.toURI.toURL).toArray, ClassLoader.getPlatformClassLoader)
    val appLoader = new URLClassLoader(own.map(_.toURI.toURL).toArray, sparkLoader)
    try {
      val probe = appLoader.loadClass(TwoBatchProbe.getClass.getName)
      assert(probe.getClassLoader eq appLoader)
      val got = probe.getMethod("run").invoke(probe.getField("MODULE$").get(null))
      assert(got == TwoBatchProbe.run())
    } finally {
      appLoader.close()
      sparkLoader.close()
    }
  }

  test("streaming operator emits drift events on a drifting stream") {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext

    val stream = Datasets.stagger.build(1)
    val rows = WindowFingerprints.toRows(stream)
    val input = MemoryStream[ObsRow]
    val events = StreamingDrift.detect(spark, input.toDS(), stream.numFeatures,
      stream.numClasses, seed = 1)
    val query = events.writeStream
      .format("memory").queryName("drift_out2").outputMode("append").start()
    try {
      input.addData(rows)
      query.processAllAvailable()
    } finally query.stop()

    val got = spark.sql("select * from drift_out2").as[DriftEvent].collect()
    assert(got.length == stream.length)
    assert(got.count(_.drift) >= 2, s"drift events: ${got.count(_.drift)}")
    assert(got.map(_.modelId).distinct.length >= 2)
  }
}

/** One key's events over two micro-batches of `processGroup`, the second of
  * which reads the engine back from its state bytes; returned as text so that
  * runs in different class loaders can be compared.
  */
object TwoBatchProbe {
  def run(): String = {
    val stream = Datasets.stagger.build(2)
    var bytes = Optional.empty[Array[Byte]]()
    WindowFingerprints.toRows(stream).take(600).grouped(300).toList.flatMap { batch =>
      val state = TestGroupState.create[Array[Byte]](bytes, GroupStateTimeout.NoTimeout(), 0L, Optional.empty[Long](), false)
      val events = StreamingDrift.processGroup(0, batch.iterator, state,
        stream.numFeatures, stream.numClasses, FiCSUMConfig(), seed = 9).toList
      bytes = Optional.of(state.get)
      events
    }.mkString("\n")
  }
}
