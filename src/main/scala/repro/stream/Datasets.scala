package repro.stream

/** Registry of the 11 evaluation datasets (Table II) plus the Table V
  * `Synth_*` family, at lengths scaled to this reproduction's wall-clock
  * budget (DESIGN.md §4). Real-world datasets are replaced with synthetic
  * analogues that preserve (#features, #contexts, drift type):
  *
  *  - p(y|X)-driven contexts (AQSex, AQTemp — Table IV top segment): each
  *    context gets a fresh random labelling tree over a *shared* feature
  *    distribution, so supervised meta-information separates contexts and
  *    unsupervised does not;
  *  - p(X)-driven contexts (Arabic, CMC, QG, UCI-Wine — Table IV bottom
  *    segment): all contexts share one labelling tree, and each context
  *    modulates the feature distribution, so unsupervised meta-information
  *    separates contexts;
  *  - CMC and UCI-Wine carry heavy label noise to land in the paper's
  *    low-kappa regime (κ ≈ 0.2–0.3).
  */
object Datasets {

  /** A dataset is a recipe: given a seed, its concepts; `build` lays them
    * out as a recurrent stream.
    */
  final case class Spec(
      name: String,
      numFeatures: Int,
      numContexts: Int,
      segLen: Int,
      occurrences: Int,
      concepts: Long => IndexedSeq[ConceptGenerator],
  ) {
    def length: Int = segLen * occurrences * numContexts

    def build(seed: Long): GeneratedStream =
      RecurrentStream.generate(name, concepts(seed), segLen, occurrences, seed)
  }

  // The occurrence count is scaled down from 9 to 3 for wall-clock.
  private val Occurrences = 3

  private def pyxDriven(name: String, d: Int, k: Int, segLen: Int,
                        noise: Double, sigma: Double): Spec =
    Spec(name, d, k, segLen, Occurrences, seed =>
      (0 until k).map(c =>
        new GaussianMixtureConcept(seed * 7919 + 1, seed * 1000 + c, d, 2,
          sigma = sigma, labelNoise = noise)))

  private def pxDriven(name: String, d: Int, k: Int, segLen: Int,
                       noise: Double, mod: ModSpec,
                       labeller: (Long, Int) => LabelFunction = balancedTree): Spec =
    Spec(name, d, k, segLen, Occurrences, seed => {
      // One labelling function for all contexts; only p(X) changes.
      val shared = labeller(seed * 1000 + 999, d)
      (0 until k).map(c => new ModulatedConcept(shared, d, seed * 1000 + c, mod, noise))
    })

  /** A shared labelling tree whose classes are not degenerate: retry seeds
    * until uniform sampling yields at least 20% minority class, so κ is a
    * meaningful measure on the p(X)-drift datasets.
    */
  private def balancedTree(seed: Long, d: Int): RandomTreeConcept = {
    val probe = new scala.util.Random(seed ^ 0x5DEECE66DL)
    Iterator.from(0).map { attempt =>
      val t = new RandomTreeConcept(seed + attempt * 7717, d, maxDepth = 4)
      val ones = (0 until 300).count(_ => t.label(Array.fill(d)(probe.nextDouble())) == 1)
      (t, math.min(ones, 300 - ones) / 300.0)
    }.collectFirst { case (t, minority) if minority >= 0.2 => t }.get
  }

  // Segment lengths track the paper's (~450-880 obs per segment) so that
  // detection lag consumes a comparable *fraction* of each segment.
  val aqSex: Spec   = pyxDriven("AQSex",   d = 25, k = 6, segLen = 450, noise = 0.02, sigma = 0.06)
  val aqTemp: Spec  = pyxDriven("AQTemp",  d = 25, k = 6, segLen = 450, noise = 0.20, sigma = 0.15)
  val arabic: Spec  = pxDriven("Arabic",   d = 10, k = 10, segLen = 250, noise = 0.05, ModSpec.DA)
  val cmc: Spec     = pxDriven("CMC",      d = 8,  k = 2, segLen = 450, noise = 0.35, ModSpec.D)
  val qg: Spec      = pxDriven("QG",       d = 63, k = 10, segLen = 200, noise = 0.10, ModSpec.D)
  val uciWine: Spec = pxDriven("UCI-Wine", d = 11, k = 2, segLen = 450, noise = 0.30, ModSpec.DA)

  val stagger: Spec = Spec("STAGGER", 3, 3, 450, Occurrences, _ => (0 until 3).map(StaggerConcept(_)))

  val rbf: Spec = Spec("RBF", 10, 6, 450, Occurrences, seed =>
    (0 until 6).map(c => new RbfConcept(seed * 1000 + c, 10)))

  // Shallow trees keep per-segment learnability comparable to the paper's
  // longer segments (their classifiers also accumulate over 9 recurrences).
  val rtree: Spec = Spec("RTREE", 10, 6, 450, Occurrences, seed =>
    (0 until 6).map(c => new RandomTreeConcept(seed * 1000 + c, 10, maxDepth = 3)))

  val hplaneU: Spec = pxDriven("HPLANE-U", d = 10, k = 6, segLen = 450, noise = 0.15, ModSpec.DAF,
    labeller = new HyperplaneConcept(_, _))
  val rtreeU: Spec  = pxDriven("RTREE-U",  d = 10, k = 6, segLen = 450, noise = 0.02, ModSpec.DAF)

  /** Table V family: random-tree base, per-concept modulation of the given
    * drift types, shared labelling tree.
    */
  def synth(spec: ModSpec): Spec =
    pxDriven(s"Synth_${spec.tag}", d = 10, k = 6, segLen = 400, noise = 0.02, spec)

  /** The 11 Table II datasets, in the paper's row order. */
  val all: IndexedSeq[Spec] = IndexedSeq(
    aqTemp, aqSex, arabic, cmc, qg, uciWine, rbf, rtree, stagger, hplaneU, rtreeU)

  /** The 7 Table V datasets. */
  val synthFamily: IndexedSeq[Spec] =
    IndexedSeq(ModSpec.A, ModSpec.AF, ModSpec.D, ModSpec.DA, ModSpec.DAF, ModSpec.DF, ModSpec.F)
      .map(synth)

  def byName(name: String): Spec =
    (all ++ synthFamily).find(_.name == name)
      .getOrElse(throw new NoSuchElementException(s"unknown dataset $name"))
}
