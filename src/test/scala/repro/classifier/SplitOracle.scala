package repro.classifier

/** The per-feature split search before an attempt computed the leaf's
  * entropy and total weight once and reused its count buffers — each
  * feature computes both afresh, each threshold allocates two arrays and
  * sums them with `.sum`, and each entropy term divides by `math.log(2)` —
  * kept verbatim (tree members qualified by `t`, leaf members by `leaf`) as
  * the test oracle.
  */
object SplitOracle {

  private def entropy(counts: Array[Double]): Double = {
    var tot = 0.0; var i = 0
    while (i < counts.length) { tot += counts(i); i += 1 }
    if (tot <= 0) return 0.0
    var h = 0.0
    i = 0
    while (i < counts.length) {
      val p = counts(i) / tot
      if (p > 1e-12) h -= p * math.log(p) / math.log(2)
      i += 1
    }
    h
  }

  /** Best (gain, threshold) for one feature via the class Gaussians. */
  def bestSplitForFeature(t: HoeffdingTree, leaf: HoeffdingTree#Leaf, f: Int): (Double, Double) = {
    import HoeffdingTree.NumSplitPoints
    val lo = leaf.mins(f); val hi = leaf.maxs(f)
    if (!(hi > lo)) return (0.0, 0.0)
    val hParent = entropy(leaf.classCounts)
    val totW = leaf.totalWeight
    var bestGain = 0.0
    var bestThr  = 0.0
    var k = 1
    while (k <= NumSplitPoints) {
      val thr = lo + (hi - lo) * k / (NumSplitPoints + 1)
      val lCounts = new Array[Double](t.numClasses)
      val rCounts = new Array[Double](t.numClasses)
      var c = 0
      while (c < t.numClasses) {
        val w = leaf.classCounts(c)
        if (w > 0) {
          val pl = leaf.observers(f)(c).cdf(thr)
          lCounts(c) = w * pl
          rCounts(c) = w * (1 - pl)
        }
        c += 1
      }
      val wl = lCounts.sum; val wr = rCounts.sum
      if (wl > 1e-9 && wr > 1e-9) {
        val gain = hParent - (wl / totW) * entropy(lCounts) - (wr / totW) * entropy(rCounts)
        if (gain > bestGain) { bestGain = gain; bestThr = thr }
      }
      k += 1
    }
    (bestGain, bestThr)
  }

  /** `doSplit`'s seeding of the two children before `Leaf.divide`, verbatim
    * (the children's count arrays passed in as `left` and `right`, which
    * start at zero): a class without weight is left as it is.
    */
  def seedChildren(t: HoeffdingTree, leaf: HoeffdingTree#Leaf, feature: Int, threshold: Double,
      left: Array[Double], right: Array[Double]): Unit = {
    var c = 0
    while (c < t.numClasses) {
      val w = leaf.classCounts(c)
      if (w > 0) {
        val pl = leaf.observers(feature)(c).cdf(threshold)
        left(c) = w * pl
        right(c) = w * (1 - pl)
      }
      c += 1
    }
  }
}
