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

  /** What one engine fingerprints from: a block of rows as columns (the
    * features the spec's sources read, y and l, each row i at index i) and
    * the kernel's scratch. The engine loads its buffer once per fingerprint
    * step and reads every window of it from here. It serves one caller at
    * a time: each engine owns one, and nothing shares one between threads.
    */
  final class Workspace(spec: FingerprintSpec) {
    private[core] val kernel = new SeqStats.Workspace
    private val features = spec.sources.collect { case FeatureSource(j) => j }.distinct.toArray
    private[core] val x = new Array[Array[Double]](spec.numFeatures)
    private[core] var y: Array[Double] = Array.emptyDoubleArray
    private[core] var l: Array[Double] = Array.emptyDoubleArray
    /** The error and error-distance sources of one window. */
    private[core] var seq: Array[Double] = Array.emptyDoubleArray

    /** Copies `rows` into the columns. */
    def load(rows: collection.IndexedSeq[Labeled]): this.type = {
      val n = rows.length
      if (y.length < n) {
        y = new Array[Double](n); l = new Array[Double](n); seq = new Array[Double](n)
        features.foreach(j => x(j) = new Array[Double](n))
      }
      var i = 0
      while (i < n) {
        val o = rows(i)
        y(i) = o.y
        l(i) = o.l
        var f = 0
        while (f < features.length) { val j = features(f); x(j)(i) = o.x(j); f += 1 }
        i += 1
      }
      this
    }
  }

  /** Kernel outputs of source `s` over rows `from until from + w` of `ws`. */
  private def describe(s: Source, ws: Workspace, from: Int, w: Int, slots: Int): Array[Double] = s match {
    case FeatureSource(j) => SeqStats.describe(ws.x(j), from, w, slots, ws.kernel)
    case LabelSource      => SeqStats.describe(ws.y, from, w, slots, ws.kernel)
    case PredSource       => SeqStats.describe(ws.l, from, w, slots, ws.kernel)
    case ErrorSource =>
      var i = 0
      while (i < w) { ws.seq(i) = if (ws.y(from + i) != ws.l(from + i)) 1.0 else 0.0; i += 1 }
      SeqStats.describe(ws.seq, 0, w, slots, ws.kernel)
    case ErrorDistSource =>
      var errors = 0
      var last = 0
      var i = 0
      while (i < w) {
        if (ws.y(from + i) != ws.l(from + i)) {
          if (errors > 0) ws.seq(errors - 1) = (i - last).toDouble
          errors += 1
          last = i
        }
        i += 1
      }
      // Higher-order stats of a handful of gaps are pure noise; below 5 gaps
      // represent the source as the constant "max distance" sequence so its
      // dims sit still instead of spiking randomly in stationary phases.
      if (errors < 6) { ws.seq(0) = w.toDouble; SeqStats.describe(ws.seq, 0, 1, slots, ws.kernel) }
      else SeqStats.describe(ws.seq, 0, errors - 1, slots, ws.kernel)
  }

  /** Whether `tree` attributes rows under `spec`: only with Shapley dims, and
    * only once it has split. A root leaf attributes +0.0 to every feature,
    * which is what [[make]] puts in the Shapley dims for no attributions.
    */
  private[core] def attributes(spec: FingerprintSpec, tree: HoeffdingTree): Boolean =
    spec.includeShapley && tree.splitEvents > 0

  /** Path attributions of each of `rows` under `tree`, one leaf evaluation
    * per row; empty when the tree does not attribute them (`attributes`).
    */
  def contributions(spec: FingerprintSpec, rows: collection.IndexedSeq[Labeled], tree: HoeffdingTree): IndexedSeq[Array[Double]] =
    if (!attributes(spec, tree)) IndexedSeq.empty
    else rows.iterator.map { o => val c = new Array[Double](tree.numFeatures); tree.explain(o.x, c); c }.toIndexedSeq

  /** Raw (unnormalized) fingerprint of `window`. `classifier` supplies the
    * Shapley (path-attribution) dimensions when the spec includes them.
    */
  def make(
      spec: FingerprintSpec,
      window: IndexedSeq[Labeled],
      classifier: Option[HoeffdingTree],
  ): Array[Double] = {
    val contribs = classifier.fold(IndexedSeq.empty[Array[Double]])(contributions(spec, window, _))
    make(spec, new Workspace(spec).load(window), 0, window.length, contribs, null)
  }

  /** Raw fingerprint of the rows `from until from + w` loaded in `ws`.
    * `contribs(i)` are loaded row i's path attributions (empty: none).
    * `shared`, if not null, is a fingerprint of the same rows under another
    * classifier: the classifier-free sources (input features and labels)
    * do not depend on which classifier labels the rows, so their dims are
    * copied from it instead of computed.
    */
  def make(
      spec: FingerprintSpec,
      ws: Workspace,
      from: Int,
      w: Int,
      contribs: IndexedSeq[Array[Double]],
      shared: Array[Double],
  ): Array[Double] = {
    require(w > 0, "cannot fingerprint an empty window")
    val out = new Array[Double](spec.dim)
    val nf = spec.functions.length
    var k = 0
    for (s <- spec.sources) {
      if (shared != null && s.classifierFree) System.arraycopy(shared, k, out, k, nf)
      else {
        val vals = describe(s, ws, from, w, spec.slots)
        var f = 0
        while (f < nf) { out(k + f) = vals(spec.functions(f).slot); f += 1 }
      }
      k += nf
    }
    if (spec.includeShapley) {
      val acc = new Array[Double](spec.numFeatures)
      if (contribs.nonEmpty) {
        var i = from
        while (i < from + w) {
          val c = contribs(i)
          var j = 0
          while (j < spec.numFeatures) { acc(j) += c(j); j += 1 }
          i += 1
        }
      }
      var j = 0
      while (j < spec.numFeatures) {
        out(k) = acc(j) / w
        k += 1; j += 1
      }
    }
    out
  }
}
