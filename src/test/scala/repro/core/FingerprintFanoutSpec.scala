package repro.core

import java.util.concurrent.Executors
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.eval.{RunOutcome, Runner, Systems}
import repro.meta.MetaFunctions
import repro.stream.{Datasets, GeneratedStream}

/** A fingerprint call split into chunks, some run on the common pool, gives
  * the bits of the serial per-window loop, and engines stepped on several
  * threads at once give the bits of each engine run alone.
  */
class FingerprintFanoutSpec extends AnyFunSuite {
  import java.lang.Double.doubleToLongBits

  private def bits(fps: collection.Seq[Array[Double]]) = fps.map(_.toSeq.map(doubleToLongBits))

  private def specs(d: Int): Seq[(String, FingerprintSpec)] =
    Seq("full" -> FingerprintSpec.full(d), "supervised" -> FingerprintSpec.supervised(d),
      "unsupervised" -> FingerprintSpec.unsupervised(d), "errorRate" -> FingerprintSpec.errorRate(d),
      "shapleyOnly" -> FingerprintSpec.shapleyOnly(d)) ++
      MetaFunctions.tableVGroups.map { case (label, fns) => s"fn:$label" -> FingerprintSpec.singleFunction(d, fns) }

  /** Rows of one random window kind: finite values, 0/1 values, finite
    * values with NaN features, or labels with few errors (0 to 8, either
    * side of the error-distance source's 6-error boundary).
    */
  private def rows(rng: scala.util.Random, d: Int, n: Int): IndexedSeq[Labeled] = {
    val kind = rng.nextInt(4)
    val errors = (0 until rng.nextInt(9)).map(_ => rng.nextInt(n)).toSet
    IndexedSeq.tabulate(n) { i =>
      val x = Array.fill(d) {
        if (kind == 1) rng.nextInt(2).toDouble
        else if (kind == 2 && rng.nextInt(4) == 0) Double.NaN
        else rng.nextGaussian()
      }
      val y = rng.nextInt(2)
      val l = if (kind == 3) (if (errors(i)) 1 - y else y) else rng.nextInt(2)
      Labeled(x, y, l)
    }
  }

  /** `rows` loaded into `ws` with the path attributions `contribs` (empty: none). */
  private def loaded(ws: Fingerprinter.Workspace, rows: IndexedSeq[Labeled],
      contribs: IndexedSeq[Array[Double]]): Fingerprinter.Workspace = {
    ws.load(rows)
    ws.attributed = contribs.nonEmpty
    ws.attr = contribs.toArray
    ws
  }

  /** `ws` with the predictions of `rows` (the loaded rows relabelled) written into `l`. */
  private def relabelled(ws: Fingerprinter.Workspace, rows: IndexedSeq[Labeled]): Fingerprinter.Workspace = {
    rows.indices.foreach(i => ws.l(i) = rows(i).l)
    ws
  }

  /** The serial loop one window at a time, on a workspace that holds only
    * its rows; with `relabel`, a second call after its rows' predictions
    * are replaced by those of `relabel`.
    */
  private def perWindow(spec: FingerprintSpec, rs: IndexedSeq[Labeled], starts: Seq[Int], w: Int,
      contribs: IndexedSeq[Array[Double]], relabel: IndexedSeq[Labeled] = null): Seq[Array[Double]] =
    starts.indices.map { j =>
      val ws = loaded(new Fingerprinter.Workspace(spec), rs.slice(starts(j), starts(j) + w),
        if (contribs.isEmpty) contribs else contribs.slice(starts(j), starts(j) + w))
      val first = Fingerprinter.make(ws, Seq(0), w, 1).head
      if (relabel == null) first
      else Fingerprinter.make(relabelled(ws, relabel.slice(starts(j), starts(j) + w)), Seq(0), w, 1).head
    }

  test("property: every chunk count gives the serial per-window fingerprints, with and without shared dims") {
    var calls = 0
    val prop = Prop.forAll(Gen.choose(0L, Long.MaxValue)) { seed =>
      val rng = new scala.util.Random(seed)
      val d = 1 + rng.nextInt(12)
      val w = 1 + rng.nextInt(60)
      val rs = rows(rng, d, w + rng.nextInt(20))
      val starts = Seq.fill(1 + rng.nextInt(3))(rng.nextInt(rs.length - w + 1))
      val contribs =
        if (rng.nextBoolean()) IndexedSeq.empty else rs.map(_ => Array.fill(d)(rng.nextGaussian()))
      // The same rows under another classifier: other predictions, same x and y.
      val other = rs.map(o => o.copy(l = rng.nextInt(2)))
      specs(d).forall { case (name, spec) =>
        val serial = perWindow(spec, rs, starts, w, contribs)
        val serialOther = perWindow(spec, other, starts, w, contribs)
        val serialShared = perWindow(spec, rs, starts, w, contribs, relabel = other)
        assert(bits(serialShared) == bits(serialOther), s"$name: the shared dims differ from the computed ones")
        Seq(1, 2, 3, 7).forall { k =>
          calls += 1
          val ws = loaded(new Fingerprinter.Workspace(spec), rs, contribs)
          val direct = Fingerprinter.make(ws, starts, w, k)
          // A second call on the same load shares the first one's classifier-free dims.
          val shared = Fingerprinter.make(relabelled(ws, other), starts, w, k)
          assert(bits(direct) == bits(serial), s"$name, d=$d, w=$w, starts $starts, $k chunks")
          assert(bits(shared) == bits(serialOther), s"$name, d=$d, w=$w, starts $starts, $k chunks, shared")
          true
        }
      }
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), prop)
    assert(result.passed, result.status.toString)
    assert(calls >= 100 * specs(1).length * 4)
  }

  test("a call after a load of other rows, or of other starts or w, computes every source instead of sharing") {
    val rng = new scala.util.Random(7)
    val (d, w) = (3, 20)
    val spec = FingerprintSpec.full(d)
    val rs = rows(rng, d, 40)
    // Other x, the same y and predictions: only the feature sources' dims differ.
    val moved = rs.map(o => o.copy(x = o.x.map(_ + 1.5)))
    def fresh(rows: IndexedSeq[Labeled], starts: Seq[Int], w: Int) =
      Fingerprinter.make(new Fingerprinter.Workspace(spec).load(rows), starts, w)
    val starts = Seq(0, 20)
    val ws = new Fingerprinter.Workspace(spec).load(rs)
    assert(ws.sources(starts.toArray, w).length == spec.sources.length)
    assert(bits(Fingerprinter.make(ws, starts, w)) == bits(fresh(rs, starts, w)))
    // Only l, err and errdist are left to compute for the same windows.
    assert(ws.sources(starts.toArray, w).length == 3)
    assert(bits(fresh(moved, starts, w)) != bits(fresh(rs, starts, w)))
    // Each case follows a call on `rs` of `starts` and w.
    for ((rows, from, width) <- Seq((rs, Seq(5, 20), w), (rs, starts, 10), (moved, starts, w))) {
      Fingerprinter.make(ws.load(rs), starts, w)
      if (rows ne rs) ws.load(rows)
      assert(ws.sources(from.toArray, width).length == spec.sources.length, s"$from, w=$width")
      assert(bits(Fingerprinter.make(ws, from, width)) == bits(fresh(rows, from, width)), s"$from, w=$width")
    }
  }

  test("ER, S-MI, fn:Mean, STAGGER and stored concepts' foreign fingerprints stay serial; full ones of wide data fan out") {
    // The sources a call computes: ER's err; S-MI's y, l, err and errdist;
    // fn:Mean's d + 4; a stored concept's foreign fingerprint after the
    // first one of the same windows, l, err and errdist.
    for (d <- Seq(3, 25, 63)) {
      assert(Fingerprinter.chunks(FingerprintSpec.errorRate(d), 1) <= 1)
      assert(Fingerprinter.chunks(FingerprintSpec.supervised(d), 4) <= 1)
      assert(Fingerprinter.chunks(FingerprintSpec.singleFunction(d, IndexedSeq(MetaFunctions.Mean)), d + 4) <= 1)
      assert(Fingerprinter.chunks(FingerprintSpec.full(d), 3) <= 1)
    }
    assert(Fingerprinter.chunks(FingerprintSpec.full(3), 7) <= 1, "STAGGER")
    val workers = java.util.concurrent.ForkJoinPool.getCommonPoolParallelism
    assert(Fingerprinter.chunks(FingerprintSpec.full(63), 67) == math.min(workers + 1, 67 / Fingerprinter.MinChunkSources))
  }

  test("four engines stepped at once on a 4-thread pool give the outcomes of each run alone") {
    def prefix(s: GeneratedStream, n: Int) = s.copy(obs = s.obs.take(n), conceptIds = s.conceptIds.take(n))
    val cells = for (ds <- Seq(Datasets.qg, Datasets.aqSex); seed <- Seq(1L, 2L)) yield (prefix(ds.build(seed), 3000), seed)
    def run(s: GeneratedStream, seed: Long): RunOutcome =
      Runner.run(Systems.create("FiCSUM", s.numFeatures, s.numClasses, seed), s, seed)
    def key(o: RunOutcome) = (o.dataset, o.system, o.seed, doubleToLongBits(o.kappa), doubleToLongBits(o.cF1),
      doubleToLongBits(o.discrimination), o.numModels)
    val alone = cells.map { case (s, seed) => key(run(s, seed)) }
    val pool = Executors.newFixedThreadPool(4)
    val together =
      try {
        implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
        Await.result(Future.sequence(cells.map { case (s, seed) => Future(key(run(s, seed))) }), Duration.Inf)
      } finally pool.shutdown()
    assert(together == alone)
    assert(alone.map(_._7).forall(_ >= 2), s"too few models to exercise model selection: $alone")
  }
}

/** Inside a Spark task a fingerprint call is the serial loop: Spark already
  * runs one task per core.
  */
class FingerprintFanoutSparkSpec extends repro.SparkSpec {

  test("a fingerprint call inside a Spark task stays serial; outside one it fans out") {
    val spec = FingerprintSpec.full(63)
    val outside = Fingerprinter.chunks(spec, spec.sources.length)
    val inTask = spark.sparkContext.parallelize(Seq(0), 1).map(_ => Fingerprinter.chunks(spec, spec.sources.length)).collect()
    assert(outside > 1 && inTask.toSeq == Seq(1), s"outside a task $outside, in a task ${inTask.toSeq}")
  }
}
