package repro.baselines

import scala.collection.mutable
import repro.classifier.HoeffdingTree
import repro.eval.StreamSystem

/** Dynamic Weighted Majority (Kolter & Maloof 2007; paper Table VI, 10
  * Hoeffding-tree experts). Experts vote weighted; a wrong expert's weight
  * is multiplied by β every `Period` steps, weights below θ prune the
  * expert, and a wrong ensemble prediction adds a fresh expert. DWM keeps
  * one evolving ensemble, so its model id is constant — which is exactly
  * why its C-F1 is capped (paper §II / Table VI).
  */
final class Dwm(numFeatures: Int, numClasses: Int) extends StreamSystem {
  import Dwm._

  val name = "DWM"

  private final class Expert(val tree: HoeffdingTree, var weight: Double) extends Serializable

  private val experts = mutable.ArrayBuffer(new Expert(new HoeffdingTree(numFeatures, numClasses), 1.0))
  private var i = 0L

  private def vote(x: Array[Double]): (Int, Array[Int]) = {
    val scores = new Array[Double](numClasses)
    val preds = new Array[Int](experts.length)
    var e = 0
    while (e < experts.length) {
      val p = experts(e).tree.predict(x)
      preds(e) = p
      scores(p) += experts(e).weight
      e += 1
    }
    (HoeffdingTree.argmax(scores), preds)
  }

  def step(x: Array[Double], y: Int): (Int, Int) = {
    i += 1
    val (global, preds) = vote(x)
    if (i % Period == 0) {
      var e = 0
      while (e < experts.length) {
        if (preds(e) != y) experts(e).weight *= Beta
        e += 1
      }
      val mx = experts.map(_.weight).max
      experts.foreach(ex => ex.weight /= mx)
      // Every weight is ≥ θβ > 0, so the best now weighs exactly 1.0 ≥ θ and survives.
      experts.filterInPlace(_.weight >= Theta)
      if (global != y) {
        if (experts.length >= MaxExperts) {
          val worst = experts.minBy(_.weight)
          experts -= worst
        }
        experts += new Expert(new HoeffdingTree(numFeatures, numClasses), 1.0)
      }
    }
    experts.foreach(_.tree.train(x, y))
    (global, 0) // single evolving ensemble representation
  }

  def numExperts: Int = experts.length
}

object Dwm {
  /** Expert cap (paper Table VI); the lowest-weight expert makes room. */
  private val MaxExperts = 10
  /** β: multiplicative penalty on a wrong expert's weight. */
  private val Beta = 0.5
  /** θ: experts whose normalised weight falls below it are pruned. */
  private val Theta = 0.01
  /** Steps between weight updates, pruning and expert creation. */
  private val Period = 5
}
