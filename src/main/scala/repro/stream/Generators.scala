package repro.stream

import scala.util.Random

/** The classic STAGGER concepts (Schlimmer & Granger). Three symbolic
  * features — size, colour, shape — each with three values, encoded as
  * doubles 0/1/2. Three labelling rules define the three concepts.
  */
final case class StaggerConcept(rule: Int) extends ConceptGenerator {
  require(rule >= 0 && rule < 3, s"STAGGER has 3 rules, got $rule")
  val numFeatures = 3
  val numClasses  = 2

  def next(rng: Random, t: Int): Observation = {
    val size  = rng.nextInt(3) // small, medium, large
    val color = rng.nextInt(3) // red, green, blue
    val shape = rng.nextInt(3) // circle, square, triangle
    val y = rule match {
      case 0 => if (size == 0 && color == 0) 1 else 0            // small ∧ red
      case 1 => if (color == 1 || shape == 0) 1 else 0           // green ∨ circle
      case 2 => if (size == 1 || size == 2) 1 else 0             // medium ∨ large
    }
    Observation(Array(size.toDouble, color.toDouble, shape.toDouble), y)
  }
}

/** A deterministic labelling function over feature vectors — the piece the
  * `-U` datasets share across concepts while p(X) changes underneath it.
  */
trait LabelFunction extends Serializable {
  def label(x: Array[Double]): Int
  def numClasses: Int
}

/** A random decision tree labelling function over U(0,1)^d features, in the
  * spirit of the scikit-multiflow / MOA RandomTree generator, with two
  * classes and no label noise. The tree shape, split features, thresholds
  * and leaf labels are all drawn deterministically from `seed`; from depth
  * `MinDepth` on, each branch stops with probability 0.3.
  */
final class RandomTreeConcept(
    seed: Long,
    val numFeatures: Int,
    maxDepth: Int = 5,
) extends ConceptGenerator with LabelFunction {
  import RandomTreeConcept.{Leaf, MinDepth, Node, Split}

  val numClasses = 2

  private val root: Node = {
    val r = new Random(seed)
    def build(depth: Int): Node =
      if (depth >= maxDepth || (depth >= MinDepth && r.nextDouble() < 0.3))
        Leaf(r.nextInt(numClasses))
      else
        Split(r.nextInt(numFeatures), 0.2 + 0.6 * r.nextDouble(), build(depth + 1), build(depth + 1))
    build(0)
  }

  private def classify(n: Node, x: Array[Double]): Int = n match {
    case Leaf(l)                 => l
    case Split(f, thr, lo, hi)   => classify(if (x(f) <= thr) lo else hi, x)
  }

  /** Label an arbitrary feature vector with this concept's tree. */
  def label(x: Array[Double]): Int = classify(root, x)

  def next(rng: Random, t: Int): Observation = {
    val x = Array.fill(numFeatures)(rng.nextDouble())
    Observation(x, classify(root, x))
  }
}

object RandomTreeConcept {
  /** Branches shallower than this always split. */
  private val MinDepth = 2

  private sealed trait Node extends Serializable
  private final case class Split(feature: Int, threshold: Double, left: Node, right: Node) extends Node
  private final case class Leaf(label: Int) extends Node
}

/** Radial-basis-function generator: `NumCentroids` Gaussian centroids, each
  * with one of two class labels, a weight and a spread. An observation
  * samples a centroid by weight and perturbs its centre, as in the
  * scikit-multiflow RandomRBF generator.
  */
final class RbfConcept(seed: Long, val numFeatures: Int) extends ConceptGenerator {
  import RbfConcept.NumCentroids

  val numClasses = 2

  private val r         = new Random(seed)
  private val centres   = Array.fill(NumCentroids, numFeatures)(r.nextDouble())
  private val labels    = Array.fill(NumCentroids)(r.nextInt(numClasses))
  private val stdDevs   = Array.fill(NumCentroids)(0.02 + 0.08 * r.nextDouble())
  private val weights   = Array.fill(NumCentroids)(r.nextDouble())
  private val cumW: Array[Double] = weights.scanLeft(0.0)(_ + _).tail.map(_ / weights.sum)

  def next(rng: Random, t: Int): Observation = {
    val u = rng.nextDouble()
    var c = 0
    while (c < NumCentroids - 1 && cumW(c) < u) c += 1
    val x = Array.tabulate(numFeatures)(j => centres(c)(j) + rng.nextGaussian() * stdDevs(c))
    Observation(x, labels(c))
  }
}

object RbfConcept {
  /** Centroids per concept. */
  private val NumCentroids = 15
}

/** Shared Gaussian clusters with per-context label assignment: the cluster
  * centres/spreads are drawn from `datasetSeed` (identical across contexts,
  * so p(X) is stationary) while the cluster→label map is drawn from
  * `contextSeed` — a pure, easily-learnable p(y|X) drift. Used to simulate
  * the real-world context datasets whose classifiers reach high accuracy
  * (AQSex/AQTemp; DESIGN.md §4).
  */
final class GaussianMixtureConcept(
    datasetSeed: Long,
    contextSeed: Long,
    val numFeatures: Int,
    val numClasses: Int = 2,
    sigma: Double = 0.05,
    labelNoise: Double = 0.0,
) extends ConceptGenerator {
  import GaussianMixtureConcept.NumClusters

  private val centres = {
    val r = new Random(datasetSeed)
    Array.fill(NumClusters, numFeatures)(r.nextDouble())
  }

  private val labels = {
    val r = new Random(contextSeed)
    // Ensure both/all classes appear: first numClasses clusters get distinct
    // labels, the rest are random.
    val base = Array.tabulate(NumClusters)(c => if (c < numClasses) c else r.nextInt(numClasses))
    r.shuffle(base.toVector).toArray
  }

  def next(rng: Random, t: Int): Observation = {
    val c = rng.nextInt(NumClusters)
    val x = Array.tabulate(numFeatures)(j => centres(c)(j) + rng.nextGaussian() * sigma)
    Observation(x, withLabelNoise(rng, labels(c), labelNoise))
  }
}

object GaussianMixtureConcept {
  /** Clusters shared by all contexts of a dataset. */
  private val NumClusters = 8
}

/** Hyperplane labelling function (HPLANE-U's shared p(y|X)): label = 1 iff
  * w · x > w · 0.5·1, with the weight vector drawn from `seed`.
  */
final class HyperplaneConcept(seed: Long, numFeatures: Int) extends LabelFunction {
  val numClasses = 2
  private val w      = { val r = new Random(seed); Array.fill(numFeatures)(r.nextDouble() * 2 - 1) }
  private val offset = 0.5 * w.sum

  def label(x: Array[Double]): Int = {
    var dot = 0.0
    var j = 0
    while (j < numFeatures) { dot += w(j) * x(j); j += 1 }
    if (dot > offset) 1 else 0
  }
}
