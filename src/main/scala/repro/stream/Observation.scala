package repro.stream

/** A single data-stream observation: a d-dimensional feature vector and a
  * discrete class label.
  */
final case class Observation(x: Array[Double], y: Int) extends Serializable {
  override def toString: String = s"Observation([${x.mkString(",")}], $y)"
}

/** A generator for one stationary concept: a fixed joint distribution
  * p(X, y). Implementations must be deterministic given the supplied RNG so
  * that streams are reproducible from a seed.
  */
trait ConceptGenerator extends Serializable {

  /** Dimensionality of the feature vector. */
  def numFeatures: Int

  /** Number of distinct class labels. */
  def numClasses: Int

  /** Draw the next observation. `t` is the index within the current
    * stationary segment (used by time-dependent generators, e.g. frequency
    * modulation).
    */
  def next(rng: scala.util.Random, t: Int): Observation

  /** Reset any internal temporal state (e.g. autocorrelation filters) at the
    * start of a new stationary segment, so recurrences of this concept
    * behave identically.
    */
  def reset(): Unit = ()

  /** `y`, or with probability `rate` a uniformly drawn other class. */
  protected def withLabelNoise(rng: scala.util.Random, y: Int, rate: Double): Int =
    if (rate > 0 && rng.nextDouble() < rate) {
      val o = rng.nextInt(numClasses - 1); if (o >= y) o + 1 else o
    } else y
}
