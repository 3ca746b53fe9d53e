package perfbench

/** Benchmark entry point, started by run.py with pinned JVM settings.
  *
  * Usage: perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *        [--size tiny] [--corrupt]
  */
object Main {

  val workloads: Map[String, Ctx => Unit] = Map(
    "seq-fingerprint" -> SeqWorkload.fingerprint,
    "seq-classifier"  -> SeqWorkload.classifier,
    "grid-variants"   -> GridWorkload.run,
    "stream-multikey" -> StreamWorkload.run,
  )

  def main(args: Array[String]): Unit = {
    val kv = args.sliding(2, 1).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, { System.err.println(s"missing --$k"); sys.exit(2) })
    val workload = need("workload")
    val run = workloads.getOrElse(workload, { System.err.println(s"unknown workload $workload"); sys.exit(2) })
    val ctx = new Ctx(
      workload = workload,
      seed = need("seed").toLong,
      seconds = need("seconds").toInt,
      trace = need("trace") == "1",
      tiny = kv.get("size").contains("tiny"),
      corrupt = args.contains("--corrupt"),
    )
    val r = ctx.report
    r.say(s"conditions workload=$workload seed=${ctx.seed} seconds=${ctx.seconds} trace=${if (ctx.trace) 1 else 0} " +
      s"nproc=${ctx.nproc} heap=${sys.props.getOrElse("perfbench.heap", "?")} " +
      s"max_heap_mb=${Runtime.getRuntime.maxMemory / (1024 * 1024)} " +
      s"jvm=${sys.props("java.vm.name")} ${sys.props("java.runtime.version")} " +
      s"commit=${sys.props.getOrElse("perfbench.commit", "unknown")} " +
      s"sources=${sys.props.getOrElse("perfbench.sources", "unknown")}" +
      (if (ctx.tiny) " size=tiny" else "") + (if (ctx.corrupt) " corrupt=1" else ""))
    val ok =
      try {
        run(ctx)
        if (ctx.trace) Layers.writeTrace(ctx)
        r.sayAll()
        r.finish()
        true
      } catch { case e: Throwable => e.printStackTrace(); false }
      finally ctx.stopSpark()
    sys.exit(if (ok) 0 else 1)
  }
}
