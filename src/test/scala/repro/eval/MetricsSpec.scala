package repro.eval

import org.scalatest.funsuite.AnyFunSuite

class MetricsSpec extends AnyFunSuite {
  import Metrics._

  test("kappa of perfect predictions is 1") {
    val t = IndexedSeq(0, 1, 0, 1, 1, 0)
    assert(kappa(t, t, 2) == 1.0)
  }

  test("kappa of constant predictions is 0") {
    val truths = IndexedSeq(0, 1, 0, 1, 0, 1)
    val preds = IndexedSeq.fill(6)(0)
    assert(math.abs(kappa(preds, truths, 2)) < 1e-9)
  }

  test("kappa matches a hand-computed confusion matrix") {
    // TP=20, TN=15, FP=5, FN=10 -> po=0.7, pe=0.5, kappa=0.4
    val truths = IndexedSeq.fill(30)(1) ++ IndexedSeq.fill(20)(0)
    val preds = IndexedSeq.fill(20)(1) ++ IndexedSeq.fill(10)(0) ++
      IndexedSeq.fill(5)(1) ++ IndexedSeq.fill(15)(0)
    val k = kappa(preds, truths, 2)
    assert(math.abs(k - 0.4) < 1e-9, s"kappa=$k")
  }

  test("kappa rejects misaligned inputs") {
    intercept[IllegalArgumentException](kappa(IndexedSeq(1), IndexedSeq(1, 2), 3))
    intercept[IllegalArgumentException](kappa(IndexedSeq.empty, IndexedSeq.empty, 2))
  }

  test("cF1 of perfect tracking is 1") {
    val concepts = IndexedSeq(0, 0, 1, 1, 0, 0, 1, 1)
    assert(cF1(concepts, concepts) == 1.0)
  }

  test("cF1 of a single constant model matches the paper's ensemble constants") {
    // 6 equally frequent concepts, one model: F1 per concept = 2*(1/6)/(1+1/6) = 2/7.
    val concepts = IndexedSeq.tabulate(600)(_ % 6)
    val models = IndexedSeq.fill(600)(0)
    assert(math.abs(cF1(models, concepts) - 2.0 / 7.0) < 1e-9) // ≈0.29 (Table VI)
    // 3 concepts -> 0.5 (STAGGER row), 2 concepts -> 2/3 (CMC row).
    val c3 = IndexedSeq.tabulate(300)(_ % 3)
    assert(math.abs(cF1(IndexedSeq.fill(300)(0), c3) - 0.5) < 1e-9)
    val c2 = IndexedSeq.tabulate(300)(_ % 2)
    assert(math.abs(cF1(IndexedSeq.fill(300)(0), c2) - 2.0 / 3.0) < 1e-9)
  }

  test("cF1 of one-model-per-segment (HTCD style) is low for recurring concepts") {
    // 2 concepts, 4 segments each: each model covers one segment.
    val concepts = IndexedSeq.tabulate(800)(i => (i / 100) % 2)
    val models = IndexedSeq.tabulate(800)(i => i / 100)
    val v = cF1(models, concepts)
    // best model per concept: p=1, r=1/4 -> F1=0.4
    assert(math.abs(v - 0.4) < 1e-9)
  }

  test("bestTrackingModel picks the argmax-F1 model per concept") {
    val concepts = IndexedSeq(0, 0, 0, 1, 1, 1)
    val models = IndexedSeq(7, 7, 8, 8, 9, 9)
    val best = bestTrackingModel(models, concepts)
    assert(best(0) == 7 && best(1) == 9)
  }

  test("discrimination separates the true model from others in sigma units") {
    val probes = IndexedSeq(
      (0, ProbeResult(Map(1 -> 0.9, 2 -> 0.4), Map(1 -> 0.05, 2 -> 0.05))),
      (0, ProbeResult(Map(1 -> 0.8, 2 -> 0.3), Map(1 -> 0.05, 2 -> 0.05))),
    )
    val d = discrimination(probes, Map(0 -> 1)).get
    assert(math.abs(d - 10.0) < 1e-9) // (0.5/0.05 + 0.5/0.05)/2
  }

  test("discrimination is None without usable probes") {
    assert(discrimination(IndexedSeq.empty, Map(0 -> 1)).isEmpty)
    val probes = IndexedSeq((0, ProbeResult(Map(1 -> 0.9), Map(1 -> 0.1))))
    assert(discrimination(probes, Map(0 -> 1)).isEmpty) // no "others"
  }

  test("discrimination floors sigma to avoid division blowup") {
    val probes = IndexedSeq((0, ProbeResult(Map(1 -> 0.9, 2 -> 0.4), Map(1 -> 0.0, 2 -> 0.0))))
    val d = discrimination(probes, Map(0 -> 1)).get
    assert(d == 0.5 / 1e-3)
  }

  test("averageRanks ranks higher values better") {
    val table = Seq(
      Map("a" -> 0.9, "b" -> 0.5, "c" -> 0.1),
      Map("a" -> 0.8, "b" -> 0.9, "c" -> 0.1),
    )
    val ranks = averageRanks(table)
    assert(ranks("a") == 1.5 && ranks("b") == 1.5 && ranks("c") == 3.0)
  }

  test("averageRanks gives tied methods the mean of the ranks they span") {
    assert(averageRanks(Seq(Map("a" -> 0.5, "b" -> 0.5, "c" -> 0.1))) == Map("a" -> 1.5, "b" -> 1.5, "c" -> 3.0))
    assert(averageRanks(Seq(Map("a" -> 0.7, "b" -> 0.7, "c" -> 0.9, "d" -> 0.7))) ==
      Map("a" -> 3.0, "b" -> 3.0, "c" -> 1.0, "d" -> 3.0))
    // NaN ranks last and ties with NaN.
    assert(averageRanks(Seq(Map("a" -> Double.NaN, "b" -> 0.2, "c" -> Double.NaN))) ==
      Map("a" -> 2.5, "b" -> 1.0, "c" -> 2.5))
  }

  test("mean and stdDev helpers") {
    assert(mean(Seq(1.0, 2.0, 3.0)) == 2.0)
    assert(mean(Seq.empty).isNaN)
    assert(math.abs(stdDev(Seq(1.0, 3.0)) - 1.0) < 1e-9)
    assert(stdDev(Seq(1.0)) == 0.0)
  }
}
