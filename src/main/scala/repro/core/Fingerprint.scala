package repro.core

import repro.classifier.HoeffdingTree
import repro.meta.{MetaFunction, SeqStats}

/** One labelled observation as seen by the fingerprinting pipeline:
  * features, ground-truth label, predicted label (paper's triple
  * ⟨X_i, y_i, l_i⟩).
  */
final case class Labeled(x: Array[Double], y: Int, l: Int) extends Serializable

/** A behaviour source (paper §III-A): a univariate view of a window.
  * The first d sources are the input features; four supervised sources
  * describe labels, predictions, errors and distances between errors.
  */
sealed trait Source extends Serializable {
  def name: String

  /** Features and labels: the same whichever classifier labels the window. */
  def classifierFree: Boolean = this match {
    case FeatureSource(_) | LabelSource => true
    case _                              => false
  }
}
final case class FeatureSource(j: Int) extends Source { def name = s"x$j" }
case object LabelSource extends Source { def name = "y" }
case object PredSource extends Source { def name = "l" }
case object ErrorSource extends Source { def name = "err" }
case object ErrorDistSource extends Source { def name = "errdist" }

/** Which sources × functions make up a fingerprint. Variants (ER, S-MI,
  * U-MI, single-function — paper §VI) are restrictions of the full spec:
  * fewer sources, or fewer slots of the same per-source kernel pass.
  */
final case class FingerprintSpec(
    numFeatures: Int,
    sources: IndexedSeq[Source],
    functions: IndexedSeq[MetaFunction],
    includeShapley: Boolean,
) extends Serializable {

  /** Dimension names: sources × functions, then per-feature Shapley. */
  val dimNames: IndexedSeq[String] = {
    val seq = for (s <- sources; f <- functions) yield s"${s.name}:${f.name}"
    val shap = if (includeShapley) (0 until numFeatures).map(j => s"shapley:x$j") else IndexedSeq.empty
    seq ++ shap
  }

  def dim: Int = dimNames.length

  /** Kernel slots the functions select ([[SeqStats.describe]] bit mask). */
  val slots: Int = functions.foldLeft(0)((m, f) => m | (1 << f.slot))

  /** Indices of dimensions that depend on the classifier's predictions —
    * these are reset when the classifier changes structurally (paper §IV).
    */
  val classifierDependentDims: IndexedSeq[Int] = {
    val perSource = for {
      (s, si) <- sources.zipWithIndex
      fi <- functions.indices
      if !s.classifierFree
    } yield si * functions.length + fi
    val shap =
      if (includeShapley) (sources.length * functions.length until dim) else IndexedSeq.empty
    perSource ++ shap
  }
}

object FingerprintSpec {
  import repro.meta.MetaFunctions

  private def featureSources(d: Int): IndexedSeq[Source] = (0 until d).map(FeatureSource(_))

  private def supervisedSources: IndexedSeq[Source] =
    IndexedSeq(LabelSource, PredSource, ErrorSource, ErrorDistSource)

  private def allSources(d: Int): IndexedSeq[Source] = featureSources(d) ++ supervisedSources

  /** Full FiCSUM fingerprint: all sources × 12 functions + d Shapley dims. */
  def full(d: Int): FingerprintSpec =
    FingerprintSpec(d, allSources(d), MetaFunctions.all, includeShapley = true)

  /** S-MI variant: supervised behaviour sources only. */
  def supervised(d: Int): FingerprintSpec =
    FingerprintSpec(d, supervisedSources, MetaFunctions.all, includeShapley = false)

  /** U-MI variant: feature behaviour sources only. */
  def unsupervised(d: Int): FingerprintSpec =
    FingerprintSpec(d, featureSources(d), MetaFunctions.all, includeShapley = false)

  /** ER variant: a single error-rate meta-information feature. */
  def errorRate(d: Int): FingerprintSpec =
    FingerprintSpec(d, IndexedSeq(ErrorSource), IndexedSeq(MetaFunctions.Mean), includeShapley = false)

  /** Table V single-function variants (Shapley = the d importance dims). */
  def singleFunction(d: Int, fns: IndexedSeq[MetaFunction]): FingerprintSpec =
    FingerprintSpec(d, allSources(d), fns, includeShapley = false)

  def shapleyOnly(d: Int): FingerprintSpec =
    FingerprintSpec(d, IndexedSeq.empty, IndexedSeq.empty, includeShapley = true)
}

/** Builds raw fingerprint vectors from windows (paper Fig. 2). */
object Fingerprinter {

  private def sourceSeq(s: Source, window: IndexedSeq[Labeled]): Array[Double] = s match {
    case FeatureSource(j) =>
      val a = new Array[Double](window.length)
      var i = 0
      while (i < window.length) { a(i) = window(i).x(j); i += 1 }
      a
    case LabelSource => window.map(_.y.toDouble).toArray
    case PredSource  => window.map(_.l.toDouble).toArray
    case ErrorSource => window.map(o => if (o.y != o.l) 1.0 else 0.0).toArray
    case ErrorDistSource =>
      val errIdx = window.zipWithIndex.collect { case (o, i) if o.y != o.l => i }
      // Higher-order stats of a handful of gaps are pure noise; below 5 gaps
      // represent the source as the constant "max distance" sequence so its
      // dims sit still instead of spiking randomly in stationary phases.
      if (errIdx.length < 6) Array(window.length.toDouble)
      else errIdx.sliding(2).map(p => (p(1) - p(0)).toDouble).toArray
  }

  /** Kernel outputs of the classifier-free sources of `window` (input
    * features and labels) under `spec`. They do not depend on which
    * classifier relabels the window, so every stored concept's foreign
    * fingerprint of one window can share them.
    */
  def classifierFree(spec: FingerprintSpec, window: IndexedSeq[Labeled]): Map[Source, Array[Double]] =
    spec.sources.filter(_.classifierFree)
      .map(s => s -> SeqStats.describe(sourceSeq(s, window), spec.slots)).toMap

  /** Whether `tree` attributes rows under `spec`: only with Shapley dims, and
    * only once it has split. A root leaf attributes +0.0 to every feature,
    * which is what [[make]] puts in the Shapley dims for no attributions.
    */
  private[core] def attributes(spec: FingerprintSpec, tree: HoeffdingTree): Boolean =
    spec.includeShapley && tree.splitEvents > 0

  /** Path attributions of each of `rows` under `tree`, one leaf evaluation
    * per row; empty when the tree does not attribute them (`attributes`).
    */
  def contributions(spec: FingerprintSpec, rows: IndexedSeq[Labeled], tree: HoeffdingTree): IndexedSeq[Array[Double]] =
    if (!attributes(spec, tree)) IndexedSeq.empty
    else rows.map { o => val c = new Array[Double](tree.numFeatures); tree.explain(o.x, c); c }

  /** Raw (unnormalized) fingerprint of `window`. `classifier` supplies the
    * Shapley (path-attribution) dimensions when the spec includes them.
    */
  def make(
      spec: FingerprintSpec,
      window: IndexedSeq[Labeled],
      classifier: Option[HoeffdingTree],
  ): Array[Double] =
    make(spec, window, classifier.fold(IndexedSeq.empty[Array[Double]])(contributions(spec, window, _)))

  /** Raw fingerprint of `window` from precomputed parts: `contribs(i)` are
    * row i's path attributions (empty: no classifier, zero Shapley dims),
    * and `shared` holds kernel outputs of sources already computed for
    * this window (see [[classifierFree]]).
    */
  def make(
      spec: FingerprintSpec,
      window: IndexedSeq[Labeled],
      contribs: IndexedSeq[Array[Double]],
      shared: Map[Source, Array[Double]] = Map.empty,
  ): Array[Double] = {
    require(window.nonEmpty, "cannot fingerprint an empty window")
    val out = new Array[Double](spec.dim)
    var k = 0
    for (s <- spec.sources) {
      val vals = shared.getOrElse(s, SeqStats.describe(sourceSeq(s, window), spec.slots))
      for (fn <- spec.functions) {
        out(k) = vals(fn.slot)
        k += 1
      }
    }
    if (spec.includeShapley) {
      val acc = new Array[Double](spec.numFeatures)
      for (c <- contribs) {
        var j = 0
        while (j < spec.numFeatures) { acc(j) += c(j); j += 1 }
      }
      var j = 0
      while (j < spec.numFeatures) {
        out(k) = acc(j) / window.length
        k += 1; j += 1
      }
    }
    out
  }
}
