package repro.classifier

/** The leaf evaluation before `Leaf.nbProba` kept its likelihood terms —
  * every call computes each log(max(pdf, 1e-12)) afresh — kept verbatim
  * (leaf members qualified by `l`) as the test oracle.
  */
object NbOracle {

  def nbProba(t: HoeffdingTree, l: HoeffdingTree#Leaf, x: Array[Double]): Array[Double] = {
    val tot = l.totalWeight
    val logp = new Array[Double](t.numClasses)
    var c = 0
    while (c < t.numClasses) {
      if (l.classCounts(c) <= 0) logp(c) = Double.NegativeInfinity
      else {
        var lp = math.log(l.classCounts(c) / tot)
        var f = 0
        while (f < t.numFeatures) {
          val est = l.observers(f)(c)
          if (est.weight > 0) lp += math.log(math.max(est.pdf(x(f)), 1e-12))
          f += 1
        }
        logp(c) = lp
      }
      c += 1
    }
    val mx = logp.max
    val exps = logp.map(l => math.exp(l - mx))
    val s = exps.sum
    exps.map(_ / s)
  }

  /** The leaf `x` reaches in `t`. */
  def leaf(t: HoeffdingTree, x: Array[Double]): HoeffdingTree#Leaf = {
    var n: t.Node = t.root
    while (n.isInstanceOf[t.Split]) n = n.asInstanceOf[t.Split].route(x)
    n.asInstanceOf[t.Leaf]
  }

  /** Whether `l` answers with naive Bayes. */
  def usesNb(l: HoeffdingTree#Leaf): Boolean =
    l.totalWeight >= HoeffdingTree.NbThreshold && l.nbCorrect >= l.mcCorrect

  /** `t.predictProba(x)` with every likelihood term computed afresh. */
  def predictProba(t: HoeffdingTree, x: Array[Double]): Array[Double] = {
    val l = leaf(t, x)
    if (usesNb(l)) nbProba(t, l, x) else l.proba
  }
}
