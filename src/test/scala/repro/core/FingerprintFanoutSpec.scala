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

  /** The serial loop one window at a time, on a workspace that holds only its rows. */
  private def perWindow(spec: FingerprintSpec, rs: IndexedSeq[Labeled], starts: Seq[Int], w: Int,
      contribs: IndexedSeq[Array[Double]], shared: collection.Seq[Array[Double]]): Seq[Array[Double]] =
    starts.indices.map { j =>
      val ws = loaded(new Fingerprinter.Workspace(spec), rs.slice(starts(j), starts(j) + w),
        if (contribs.isEmpty) contribs else contribs.slice(starts(j), starts(j) + w))
      Fingerprinter.make(ws, Seq(0), w, if (shared == null) null else Seq(shared(j)), 1).head
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
      val relabelled = rs.map(o => o.copy(l = rng.nextInt(2)))
      specs(d).forall { case (name, spec) =>
        val serial = perWindow(spec, rs, starts, w, contribs, null)
        val other = perWindow(spec, relabelled, starts, w, contribs, null)
        val serialShared = perWindow(spec, relabelled, starts, w, contribs, serial)
        assert(bits(serialShared) == bits(other), s"$name: the shared dims differ from the computed ones")
        Seq(1, 2, 3, 7).forall { k =>
          calls += 1
          val ws = new Fingerprinter.Workspace(spec)
          val direct = Fingerprinter.make(loaded(ws, rs, contribs), starts, w, null, k)
          val shared = Fingerprinter.make(loaded(ws, relabelled, contribs), starts, w, serial, k)
          assert(bits(direct) == bits(serial), s"$name, d=$d, w=$w, starts $starts, $k chunks")
          assert(bits(shared) == bits(serialShared), s"$name, d=$d, w=$w, starts $starts, $k chunks, shared")
          true
        }
      }
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), prop)
    assert(result.passed, result.status.toString)
    assert(calls >= 100 * specs(1).length * 4)
  }

  test("ER, S-MI, fn:Mean, STAGGER and stored concepts' foreign fingerprints stay serial; full ones of wide data fan out") {
    def computed(spec: FingerprintSpec, shared: Boolean) =
      spec.sources.count(s => !(shared && s.classifierFree))
    def chunks(spec: FingerprintSpec, shared: Boolean = false) = Fingerprinter.chunks(spec, computed(spec, shared))
    for (d <- Seq(3, 25, 63)) {
      assert(chunks(FingerprintSpec.errorRate(d)) <= 1)
      assert(chunks(FingerprintSpec.supervised(d)) <= 1)
      assert(chunks(FingerprintSpec.singleFunction(d, IndexedSeq(MetaFunctions.Mean))) <= 1)
      // A stored concept's foreign fingerprint computes only l, err and errdist.
      assert(chunks(FingerprintSpec.full(d), shared = true) <= 1)
    }
    assert(chunks(FingerprintSpec.full(3)) <= 1, "STAGGER")
    val workers = java.util.concurrent.ForkJoinPool.getCommonPoolParallelism
    assert(chunks(FingerprintSpec.full(63)) == math.min(workers + 1, 67 / Fingerprinter.MinChunkSources))
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
