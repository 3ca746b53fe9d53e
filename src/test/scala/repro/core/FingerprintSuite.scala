package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.meta.{MetaFunctions, SeqStats}

class FingerprintSpecSuite extends AnyFunSuite {

  test("full fingerprint has (d+4)*12 + d dimensions") {
    val spec = FingerprintSpec.full(10)
    assert(spec.dim == 14 * 12 + 10)
  }

  test("full fingerprint captures at least 65 aspects of behaviour (paper claim)") {
    // Even the smallest dataset (STAGGER, d=3) exceeds the paper's 65.
    assert(FingerprintSpec.full(3).dim >= 65)
  }

  test("variant dimensions: S-MI, U-MI, ER, single-function") {
    assert(FingerprintSpec.supervised(10).dim == 4 * 12)
    assert(FingerprintSpec.unsupervised(10).dim == 10 * 12)
    assert(FingerprintSpec.errorRate(10).dim == 1)
    assert(FingerprintSpec.singleFunction(10, IndexedSeq(MetaFunctions.Mean)).dim == 14)
    assert(FingerprintSpec.shapleyOnly(10).dim == 10)
  }

  test("dimension names are unique") {
    val spec = FingerprintSpec.full(7)
    assert(spec.dimNames.distinct.length == spec.dim)
  }

  test("classifier-dependent dims are the l/err/errdist sources plus Shapley") {
    val spec = FingerprintSpec.full(2)
    val names = spec.classifierDependentDims.map(spec.dimNames)
    assert(names.forall(n =>
      n.startsWith("l:") || n.startsWith("err:") || n.startsWith("errdist:") || n.startsWith("shapley:")))
    // 3 sources * 12 functions + 2 shapley dims
    assert(names.length == 3 * 12 + 2)
    // Each source is either shared across classifiers or classifier-dependent.
    val free = spec.sources.filter(_.classifierFree).toSet
    val dependent = spec.classifierDependentDims.toSet
    for ((s, si) <- spec.sources.zipWithIndex) {
      val dims = spec.functions.indices.map(si * spec.functions.length + _)
      assert(dims.forall(dependent) != free(s), s"${s.name} is in both sets or in neither")
      assert(dims.forall(dependent) || !dims.exists(dependent), s"${s.name} is split across the sets")
    }
  }

  private val window = IndexedSeq(
    Labeled(Array(1.0, 5.0), 1, 1),
    Labeled(Array(0.5, 7.0), 1, 0),
    Labeled(Array(0.75, 6.0), 0, 1),
  )

  test("paper Fig.2 example: mean-only fingerprint of the 3-obs window") {
    // Paper: sources x0=[1,0.5,0.75], x1=[5,7,6], y=[1,1,0], l=[1,0,1],
    // err=[0,1,1]; with the 'mean' function: [0.75, 6, 0.66, 0.66, 0.66, 1].
    // Our errdist source needs >=6 errors (5 gaps) and falls back to
    // [windowLength]=[3] (documented deviation), so the last element is 3
    // rather than 1.
    val spec = FingerprintSpec.singleFunction(2, IndexedSeq(MetaFunctions.Mean))
    val fp = Fingerprinter.make(spec, window, None)
    assert(math.abs(fp(0) - 0.75) < 1e-9)
    assert(math.abs(fp(1) - 6.0) < 1e-9)
    assert(math.abs(fp(2) - 2.0 / 3) < 1e-9)
    assert(math.abs(fp(3) - 2.0 / 3) < 1e-9)
    assert(math.abs(fp(4) - 2.0 / 3) < 1e-9)
    assert(math.abs(fp(5) - 3.0) < 1e-9)
  }

  test("feature source dims equal SeqStats on the raw column") {
    val spec = FingerprintSpec.unsupervised(2)
    val fp = Fingerprinter.make(spec, window, None)
    val x0 = Array(1.0, 0.5, 0.75)
    val idx = spec.dimNames.indexOf("x0:mean")
    assert(fp(idx) == SeqStats.describe(x0)(MetaFunctions.Mean.slot))
    val idxSd = spec.dimNames.indexOf("x0:stdev")
    assert(fp(idxSd) == SeqStats.describe(x0)(MetaFunctions.StdDev.slot))
  }

  test("error-rate variant equals the window error rate") {
    val spec = FingerprintSpec.errorRate(2)
    val fp = Fingerprinter.make(spec, window, None)
    assert(math.abs(fp(0) - 2.0 / 3) < 1e-9)
  }

  test("errdist uses real gaps when there are enough errors") {
    val manyErrors = (0 until 30).map(i => Labeled(Array(0.0), i % 2, 1 - i % 2)) // all errors
    val spec = FingerprintSpec(1, IndexedSeq(ErrorDistSource), IndexedSeq(MetaFunctions.Mean), false)
    val fp = Fingerprinter.make(spec, manyErrors, None)
    assert(math.abs(fp(0) - 1.0) < 1e-9) // consecutive errors: every gap is 1
  }

  test("errdist reads the constant [w] below 6 errors and the real gaps from 6 errors on") {
    val spec = FingerprintSpec(1, IndexedSeq(ErrorDistSource), MetaFunctions.all, false)
    def bits(xs: Array[Double]) = xs.toSeq.map(java.lang.Double.doubleToLongBits)
    def window(errorsAt: Set[Int]) =
      (0 until 20).map(i => Labeled(Array(0.0), 0, if (errorsAt(i)) 1 else 0))
    // 5 errors, 4 gaps: the constant one-value sequence [w].
    val five = Fingerprinter.make(spec, window(Set(0, 2, 5, 9, 14)), None)
    assert(bits(five) == bits(SeqStats.describe(Array(20.0))))
    // 6 errors: their 5 real gaps.
    val six = Fingerprinter.make(spec, window(Set(0, 2, 5, 9, 14, 19)), None)
    assert(bits(six) == bits(SeqStats.describe(Array(2.0, 3.0, 4.0, 5.0, 5.0))))
  }

  test("shapley dims are zero without a classifier") {
    val spec = FingerprintSpec.full(2)
    val fp = Fingerprinter.make(spec, window, None)
    val shapIdx = spec.dimNames.zipWithIndex.filter(_._1.startsWith("shapley")).map(_._2)
    shapIdx.foreach(i => assert(fp(i) == 0.0))
  }

  test("empty windows are rejected") {
    intercept[IllegalArgumentException](
      Fingerprinter.make(FingerprintSpec.full(2), IndexedSeq.empty, None))
  }

  test("a window past the loaded rows is rejected, though an earlier longer load left its columns") {
    val ws = new Fingerprinter.Workspace(FingerprintSpec.full(2)).load(IndexedSeq.fill(30)(window(0)))
    ws.load(window)
    assert(Fingerprinter.make(ws, Seq(0), 3).length == 1)
    intercept[IllegalArgumentException](Fingerprinter.make(ws, Seq(0), 4))
    intercept[IllegalArgumentException](Fingerprinter.make(ws, Seq(1), 3))
  }

  test("fingerprints contain no NaN/Inf on degenerate windows") {
    val constant = IndexedSeq.fill(20)(Labeled(Array(0.5, 0.5), 0, 0))
    val fp = Fingerprinter.make(FingerprintSpec.full(2), constant, None)
    assert(fp.forall(v => !v.isNaN && !v.isInfinite))
  }
}

class RunningVecSpec extends AnyFunSuite {

  test("Welford matches direct mean/std") {
    val rv = new RunningVec(2)
    val rows = Seq(Array(1.0, 10.0), Array(2.0, 20.0), Array(3.0, 30.0), Array(4.0, 40.0))
    rows.foreach(rv.add)
    assert(math.abs(rv.mean(0) - 2.5) < 1e-9)
    assert(math.abs(rv.mean(1) - 25.0) < 1e-9)
    val sd0 = math.sqrt(Seq(1.0, 2, 3, 4).map(v => (v - 2.5) * (v - 2.5)).sum / 4)
    assert(math.abs(rv.std(0) - sd0) < 1e-9)
    assert(rv.count(0) == 4)
  }

  test("dimension mismatch is rejected") {
    intercept[IllegalArgumentException](new RunningVec(2).add(Array(1.0)))
  }

  test("property: counts, means and the cached σ equal the uncached oracle after any interleaving of add and decayDims") {
    import org.scalacheck.{Gen, Prop, Test => SCTest}
    def bits(v: Double) = java.lang.Double.doubleToLongBits(v)
    val prop = Prop.forAll(Gen.choose(0L, Long.MaxValue)) { seed =>
      val rng = new scala.util.Random(seed)
      val dim = 1 + rng.nextInt(5)
      val rv = new RunningVec(dim)
      val oracle = new RunningVecOracle(dim)
      (0 until 40).forall { _ =>
        if (rng.nextInt(3) == 0) {
          val dims = (0 until dim).filter(_ => rng.nextBoolean())
          rv.decayDims(dims, 0.3); oracle.decayDims(dims, 0.3)
        } else {
          val v = Array.fill(dim)(if (rng.nextInt(5) == 0) 1.0 else rng.nextGaussian())
          rv.add(v); oracle.add(v)
        }
        // Reads skip some steps, so the σ cache also sees several changes at once.
        rng.nextBoolean() || (0 until dim).forall { i =>
          bits(rv.count(i)) == bits(oracle.count(i)) && bits(rv.mean(i)) == bits(oracle.mean(i)) &&
            bits(rv.std(i)) == bits(oracle.std(i))
        }
      }
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(result.passed, result.status.toString)
  }

  test("decayDims keeps mean and std but shrinks counts") {
    val rv = new RunningVec(1)
    (1 to 10).foreach(i => rv.add(Array(i.toDouble)))
    val (m, s, c) = (rv.mean(0), rv.std(0), rv.count(0))
    rv.decayDims(Seq(0), 0.3)
    assert(rv.mean(0) == m)
    assert(math.abs(rv.std(0) - s) < 1e-9)
    assert(math.abs(rv.count(0) - c * 0.3) < 1e-9)
  }

  // ConceptState's lifecycle, driven only through absorb, onSplit and
  // markActivated.
  import ConceptState.{InitialBudget, MaxPerActivation, MaxSamples, ReuseBudget, SimBudget, SplitBudget}

  private val noSim: Array[Double] => Double = _ => fail("sim called while the concept is open")

  /** Absorbs fingerprints until `cs` freezes; returns how many it took in. */
  private def drainOpen(cs: ConceptState): Int = {
    var n = 0
    while (!cs.frozen) { cs.absorb(Array.fill(cs.dim)(n.toDouble), noSim); n += 1 }
    n
  }

  /** Absorbs frozen-phase fingerprints until `cs` is armed; returns how many similarities it recorded. */
  private def recordUntilArmed(cs: ConceptState): Int = {
    var calls = 0
    var n = 0
    while (!cs.armed) {
      assert(n < 1000, "the concept never armed")
      cs.absorb(Array.fill(cs.dim)(0.0), _ => { calls += 1; 0.5 })
      n += 1
    }
    calls
  }

  /** A concept whose tree learns a deep random-tree concept one split at a time. */
  private final class Growing {
    private val concept = new repro.stream.RandomTreeConcept(4, 3, maxDepth = 12)
    private val rng = new scala.util.Random(6)
    private var t = 0
    val cs = new ConceptState(0, 3, new repro.classifier.HoeffdingTree(3, 2,
      repro.classifier.HoeffdingTreeConfig(gracePeriod = 20)))
    def split(): Unit = {
      val before = cs.classifier.splitEvents
      while (cs.classifier.splitEvents == before) {
        assert(t < 100000, "the tree stopped splitting")
        val o = concept.next(rng, t)
        cs.classifier.train(o.x, o.y)
        t += 1
      }
      assert(cs.classifier.splitEvents == before + 1)
    }
  }

  test("a new concept absorbs InitialBudget fingerprints, records SimBudget similarities, then is armed") {
    val cs = new ConceptState(0, 2, new repro.classifier.HoeffdingTree(2, 2))
    assert(!cs.frozen && !cs.armed)
    assert(drainOpen(cs) == InitialBudget)
    assert(cs.stats.totalCount == InitialBudget && cs.simStats.weight == 0 && cs.sampleFps.isEmpty)

    val record = (0 until SimBudget).map(k => Array(k.toDouble, 1.0))
    var calls = 0
    val sim = (fp: Array[Double]) => { calls += 1; math.sin(fp(0)) }
    record.foreach { fp => assert(!cs.armed); cs.absorb(fp, sim) }
    assert(cs.armed && calls == SimBudget && cs.stats.totalCount == InitialBudget)
    // Each record is the 0.7/0.3 EWMA of the similarities so far.
    val expected = new repro.classifier.GaussianEstimator
    record.map(fp => math.sin(fp(0))).scanLeft(Double.NaN)((e, s) => if (e.isNaN) s else 0.7 * e + 0.3 * s)
      .tail.foreach(expected.add(_))
    assert(cs.simStats.weight == SimBudget)
    assert(cs.simStats.mean == expected.mean && cs.simStats.stdDev == expected.stdDev)

    // Armed: further fingerprints change nothing.
    val samples = cs.sampleFps.toList
    (0 until 50).foreach(k => cs.absorb(Array(k.toDouble, 2.0), noSim))
    assert(cs.armed && cs.frozen && cs.stats.totalCount == InitialBudget)
    assert(cs.simStats.weight == SimBudget && cs.simStats.mean == expected.mean)
    assert(cs.sampleFps.toList == samples)
  }

  test("ConceptState sample ring buffer caps") {
    val cs = new ConceptState(0, 2, new repro.classifier.HoeffdingTree(2, 2))
    drainOpen(cs)
    val record = (0 until SimBudget).map(k => Array(k.toDouble, 0.0))
    record.foreach(cs.absorb(_, _ => 0.5))
    // Every third fingerprint is a sample, and only the last MaxSamples stay.
    val kept = record.indices.filter(_ % 3 == 0).map(record).takeRight(MaxSamples)
    assert(record.indices.count(_ % 3 == 0) > MaxSamples)
    assert(cs.sampleFps.length == MaxSamples && cs.sampleFps.indices.forall(k => cs.sampleFps(k) eq kept(k)))
    assert(cs.sampleFps.head(0) == 3.0 * (SimBudget / 3 - MaxSamples)) // oldest evicted
  }

  test("onSplit acts once per split, decays only the given dims, and re-opens SplitBudget unless suspicious") {
    val g = new Growing
    val cs = g.cs
    assert(!cs.onSplit(Seq(1), suspicious = false))
    drainOpen(cs)
    val (count0, count1, mean1) = (cs.stats.count(0), cs.stats.count(1), cs.stats.mean(1))

    g.split()
    assert(cs.onSplit(Seq(1), suspicious = true))
    assert(!cs.onSplit(Seq(1), suspicious = false))
    assert(cs.frozen, "a suspicious split keeps the concept frozen")
    assert(cs.stats.count(0) == count0 && cs.stats.count(1) == count1 * 0.3 && cs.stats.mean(1) == mean1)

    g.split()
    assert(cs.onSplit(Seq(2), suspicious = false))
    assert(!cs.onSplit(Seq(2), suspicious = false))
    assert(drainOpen(cs) == SplitBudget)
  }

  // Split re-openings stop at MaxPerActivation, and markActivated re-opens
  // ReuseBudget and SimBudget / 3 records.
  test("ConceptState budget mechanics") {
    val g = new Growing
    val cs = g.cs
    assert(drainOpen(cs) == InitialBudget)
    val reopenings = (MaxPerActivation - InitialBudget) / SplitBudget
    (0 until reopenings + 2).foreach { k =>
      g.split()
      assert(cs.onSplit(Seq(0), suspicious = false))
      assert(drainOpen(cs) == (if (k < reopenings) SplitBudget else 0), s"split $k")
    }
    assert(recordUntilArmed(cs) == SimBudget)

    cs.markActivated()
    assert(!cs.armed && drainOpen(cs) == ReuseBudget)
    assert(recordUntilArmed(cs) == SimBudget / 3 && cs.simStats.weight == SimBudget + SimBudget / 3)
    // The re-activation restarted the per-activation count: splits re-open again.
    g.split()
    assert(cs.onSplit(Seq(0), suspicious = false) && drainOpen(cs) == SplitBudget)
  }
}
