package repro.baselines

import repro.classifier.HoeffdingTree
import repro.detector.Adwin
import repro.eval.StreamSystem

/** HTCD baseline (paper Table VI): a Hoeffding Tree reset whenever ADWIN
  * detects drift in the 0/1 error sequence. No repository — every drift
  * starts a fresh model, so each model id covers exactly one segment.
  */
final class Htcd(numFeatures: Int, numClasses: Int) extends StreamSystem {
  import Htcd.AdwinDelta

  val name = "HTCD"

  private var modelId = 0
  private var tree    = new HoeffdingTree(numFeatures, numClasses)
  private var adwin   = new Adwin(AdwinDelta)

  /** Every drift starts the next model id. */
  def driftCount: Int = modelId

  def step(x: Array[Double], y: Int): (Int, Int) = {
    val l = tree.predict(x)
    tree.train(x, y)
    if (adwin.add(if (l != y) 1.0 else 0.0)) {
      modelId += 1
      tree = new HoeffdingTree(numFeatures, numClasses)
      adwin = new Adwin(AdwinDelta)
    }
    (l, modelId)
  }
}

object Htcd {
  /** Confidence δ of the error ADWIN (the detector's usual default). */
  private val AdwinDelta = 0.002
}
