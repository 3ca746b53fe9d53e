package repro.classifier

/** The `featureContributions` that [[HoeffdingTree.explain]] replaced — a
  * `predict` pass, then a second walk re-evaluating the leaf — kept verbatim
  * (tree members qualified by `t`) as the test oracle.
  */
object ContributionOracle {

  def featureContributions(t: HoeffdingTree, x: Array[Double]): Array[Double] = {
    val contrib = new Array[Double](t.numFeatures)
    var n: t.Node = t.root
    val yHat = t.predict(x)
    var pPrev = n.proba(yHat)
    while (n.isInstanceOf[t.Split]) {
      val s = n.asInstanceOf[t.Split]
      val child = s.route(x)
      val pChild = child match {
        case l: t.Leaf => l.leafProba(x)(yHat)
        case o         => o.proba(yHat)
      }
      contrib(s.feature) += math.abs(pChild - pPrev)
      pPrev = pChild
      n = child
    }
    contrib
  }

  /** Leaves of `t` that answer with naive Bayes under `nbThreshold`. */
  def naiveBayesLeaves(t: HoeffdingTree, nbThreshold: Double): Int = {
    def count(n: t.Node): Int = n match {
      case s: t.Split => count(s.left) + count(s.right)
      case l: t.Leaf  => if (l.totalWeight >= nbThreshold && l.nbCorrect >= l.mcCorrect) 1 else 0
    }
    count(t.root)
  }
}
