package repro.stream

import scala.util.Random

/** Which unsupervised drift types a [[ModulatedConcept]] injects between
  * concepts (paper §VI-6): distribution (mean/std/skew/kurtosis),
  * autocorrelation, and frequency (overlaid sine wave).
  */
final case class ModSpec(dist: Boolean, auto: Boolean, freq: Boolean) extends Serializable {
  def tag: String =
    (if (dist) "D" else "") + (if (auto) "A" else "") + (if (freq) "F" else "")
}

object ModSpec {
  val D: ModSpec   = ModSpec(dist = true, auto = false, freq = false)
  val A: ModSpec   = ModSpec(dist = false, auto = true, freq = false)
  val F: ModSpec   = ModSpec(dist = false, auto = false, freq = true)
  val DA: ModSpec  = ModSpec(dist = true, auto = true, freq = false)
  val DF: ModSpec  = ModSpec(dist = true, auto = false, freq = true)
  val AF: ModSpec  = ModSpec(dist = false, auto = true, freq = true)
  val DAF: ModSpec = ModSpec(dist = true, auto = true, freq = true)
}

/** A concept whose *feature sampling* is modulated per concept while the
  * labelling function is shared across concepts: the label is computed by
  * `labeler` on the **modulated** feature vector, so p(y|X) is identical for
  * every concept and only p(X) (and hence p(y)) moves between concepts —
  * exactly the paper's construction for the `-U` datasets (HPLANE-U,
  * RTREE-U) and the Table V `Synth_*` family ("we induce change in p(X) ...
  * by setting the distribution, autocorrelation and frequency of the
  * sampling function").
  *
  * - distribution: per-feature power/scale/shift of a U(0,1) draw — shifts
  *   mean, variance, skew and kurtosis;
  * - autocorrelation: per-feature AR(1) filter x_t = ρ x_{t−1} + (1−ρ) u_t;
  * - frequency: per-feature additive sine with concept-specific amplitude,
  *   frequency and phase.
  *
  * All transform parameters are drawn from `seed`, so each concept id gets a
  * distinct, reproducible p(X).
  */
final class ModulatedConcept(
    labeler: LabelFunction,
    val numFeatures: Int,
    seed: Long,
    spec: ModSpec,
    labelNoise: Double = 0.0,
) extends ConceptGenerator {

  val numClasses: Int = labeler.numClasses

  private val r       = new Random(seed * 7919 + 13)
  private val powers  = Array.fill(numFeatures)(Array(0.5, 1.0, 2.0, 3.0)(r.nextInt(4)))
  private val scales  = Array.fill(numFeatures)(0.5 + 1.0 * r.nextDouble())
  private val shifts  = Array.fill(numFeatures)(r.nextDouble() * 0.6 - 0.3)
  private val rhos    = Array.fill(numFeatures)(0.3 + 0.65 * r.nextDouble())
  private val amps    = Array.fill(numFeatures)(0.1 + 0.4 * r.nextDouble())
  private val freqs   = Array.fill(numFeatures)(0.01 + 0.19 * r.nextDouble())
  private val phases  = Array.fill(numFeatures)(r.nextDouble() * 2 * math.Pi)

  // AR(1) filter state; reset at each segment start so recurrences match.
  private val arState = Array.fill(numFeatures)(Double.NaN)

  override def reset(): Unit = java.util.Arrays.fill(arState, Double.NaN)

  def next(rng: Random, t: Int): Observation = {
    val x = new Array[Double](numFeatures)
    var j = 0
    while (j < numFeatures) {
      var v = rng.nextDouble()
      if (spec.dist) v = shifts(j) + scales(j) * math.pow(v, powers(j))
      if (spec.auto) {
        val prev = arState(j)
        v = if (prev.isNaN) v else rhos(j) * prev + (1 - rhos(j)) * v
        arState(j) = v
      }
      if (spec.freq) v += amps(j) * math.sin(2 * math.Pi * freqs(j) * t + phases(j))
      x(j) = v
      j += 1
    }
    Observation(x, withLabelNoise(rng, labeler.label(x), labelNoise))
  }
}
