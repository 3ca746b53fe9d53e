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
    val free = Fingerprinter.classifierFree(spec, window).keySet
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
    // Our errdist source needs >=6 gaps and falls back to [windowLength]=[3]
    // (documented deviation), so the last element is 3 rather than 1.
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

  test("decayDims keeps mean and std but shrinks counts") {
    val rv = new RunningVec(1)
    (1 to 10).foreach(i => rv.add(Array(i.toDouble)))
    val (m, s, c) = (rv.mean(0), rv.std(0), rv.count(0))
    rv.decayDims(Seq(0), 0.3)
    assert(rv.mean(0) == m)
    assert(math.abs(rv.std(0) - s) < 1e-9)
    assert(math.abs(rv.count(0) - c * 0.3) < 1e-9)
  }

  test("ConceptState budget mechanics") {
    val cs = new ConceptState(0, 4, new repro.classifier.HoeffdingTree(2, 2))
    assert(!cs.frozen && cs.openRemaining == ConceptState.InitialBudget)
    cs.openRemaining = 0
    assert(cs.frozen)
    cs.grantBudget(ConceptState.SplitBudget)
    assert(cs.openRemaining == ConceptState.SplitBudget)
    // Exhaust the per-activation cap; further grants are ignored.
    cs.openedSinceActivation = ConceptState.MaxPerActivation
    cs.openRemaining = 0
    cs.grantBudget(ConceptState.SplitBudget)
    assert(cs.frozen)
    // Re-activation restarts the per-activation count, so its grant lands.
    cs.markActivated()
    assert(cs.openRemaining == ConceptState.ReuseBudget)
    assert(cs.openedSinceActivation == ConceptState.ReuseBudget)
  }

  test("ConceptState sample ring buffer caps") {
    val cs = new ConceptState(0, 2, new repro.classifier.HoeffdingTree(2, 2))
    (0 until 12).foreach(i => cs.addSample(Array(i.toDouble, 0.0)))
    assert(cs.sampleFps.length == ConceptState.MaxSamples)
    assert(cs.sampleFps.head(0) == 12.0 - ConceptState.MaxSamples) // oldest evicted
  }
}
