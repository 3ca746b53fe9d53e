package repro.stream

import scala.util.Random

/** A fully materialized stream with ground-truth concept ids per timestep —
  * the unit of evaluation for every table. Lengths in this reproduction are
  * ≤ ~10k observations, so materializing is cheap and keeps runs
  * deterministic across systems.
  */
final case class GeneratedStream(
    name: String,
    obs: IndexedSeq[Observation],
    conceptIds: IndexedSeq[Int],
    numFeatures: Int,
    numClasses: Int,
) extends Serializable {
  require(obs.length == conceptIds.length, "one concept id per observation")
  def length: Int = obs.length
}

/** Builds recurrent-concept streams: each concept appears `occurrences`
  * times in segments of `segLen` observations, with the occurrence order
  * shuffled per seed (paper §VI-1). Most adjacent duplicate segments are
  * swapped away, but not all (see [[occurrenceOrder]]), so a segment
  * boundary is not always a concept drift: `conceptIds` says which are.
  */
object RecurrentStream {

  /** Shuffle concept occurrence order, then swap each segment that repeats
    * its left neighbour with a segment of another concept that neither of
    * their new neighbours repeats. A repeat stays when no such segment
    * exists, even where an order without repeats does: with 2 concepts of 3
    * occurrences, 2 of the 5 boundaries stay repeats at seed 5, although
    * ABABAB exists. STAGGER at seed 1 keeps 7 real boundaries of 8.
    */
  def occurrenceOrder(numConcepts: Int, occurrences: Int, rng: Random): IndexedSeq[Int] = {
    val order = rng.shuffle((0 until numConcepts).flatMap(c => Seq.fill(occurrences)(c)).toVector)
    val arr   = order.toArray
    var changed = true
    var pass    = 0
    while (changed && pass < 10) {
      changed = false
      var i = 1
      while (i < arr.length) {
        if (arr(i) == arr(i - 1)) {
          var j = 0
          var swapped = false
          while (j < arr.length && !swapped) {
            val leftOk  = j == 0 || arr(j - 1) != arr(i)
            val rightOk = j == arr.length - 1 || arr(j + 1) != arr(i)
            if (arr(j) != arr(i) && leftOk && rightOk &&
                arr(j) != arr(i - 1) && (i == arr.length - 1 || arr(j) != arr(i + 1))) {
              val tmp = arr(i); arr(i) = arr(j); arr(j) = tmp
              swapped = true; changed = true
            }
            j += 1
          }
        }
        i += 1
      }
      pass += 1
    }
    arr.toVector
  }

  def generate(
      name: String,
      concepts: IndexedSeq[ConceptGenerator],
      segLen: Int,
      occurrences: Int,
      seed: Long,
  ): GeneratedStream = {
    require(concepts.nonEmpty, "need at least one concept")
    val d  = concepts.head.numFeatures
    val nc = concepts.map(_.numClasses).max
    require(concepts.forall(_.numFeatures == d), "all concepts must share dimensionality")

    val rng   = new Random(seed)
    val order = occurrenceOrder(concepts.length, occurrences, rng)

    val obs = Vector.newBuilder[Observation]
    val ids = Vector.newBuilder[Int]
    for (cid <- order) {
      val gen = concepts(cid)
      gen.reset()
      var t = 0
      while (t < segLen) {
        obs += gen.next(rng, t)
        ids += cid
        t += 1
      }
    }
    GeneratedStream(name, obs.result(), ids.result(), d, nc)
  }
}
