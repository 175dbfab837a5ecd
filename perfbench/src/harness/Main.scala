package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.file.Paths

import scala.jdk.CollectionConverters._

/** Benchmark entry point.
  *
  * {{{
  * Main --workload <vi-local|vi-spark|svi-stream> --seed <n> --seconds <s>
  *      --trace <0|1> [--trace-dir <dir>]
  * }}}
  *
  * Sets the workload up [[SetupRepeats]] times, runs its warm-up passes, then
  * timed passes until `--seconds` would be exceeded by one more, and prints
  * one JSON object as the last line of standard output: the end-to-end
  * metrics when untraced, the per-layer metrics when traced.
  */
object Main {
  val SetupRepeats = 5
  val HeapReadings = 6

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = opts.getOrElse(k, usage(s"missing --$k"))
    val seed = need("seed").toLong
    val seconds = need("seconds").toDouble
    val traced = need("trace") match {
      case "0" => false
      case "1" => true
      case other => usage(s"--trace must be 0 or 1, not $other")
    }
    val workload = Workload(need("workload"), seed)
    val layers = if (traced) Layers.traced() else Layers.EntryPoints
    Trace.enabled = traced

    var attempted = 0
    var failed = 0
    val problems = scala.collection.mutable.LinkedHashSet.empty[String]
    def count(r: PassResult): Unit = {
      attempted += r.attempted; failed += r.failed; problems ++= r.problems
    }

    try {
      val setups = (1 to SetupRepeats).map { _ =>
        val t0 = System.nanoTime()
        workload.setup(layers)
        Workload.seconds(t0)
      }
      (1 to workload.warmUpPasses).foreach { _ =>
        layers.passStarted(timed = false)
        count(workload.pass(layers, timed = false))
        layers.passEnded(timed = false)
      }

      val passes = Vector.newBuilder[PassResult]
      val start = System.nanoTime()
      var pass = 0
      var last = 0.0
      while (pass == 0 || Workload.seconds(start) + last <= seconds) {
        Trace.beginPass(pass)
        layers.passStarted(timed = true)
        val t0 = System.nanoTime()
        val r = Trace.span("pass")(workload.pass(layers, timed = true))
        last = Workload.seconds(t0)
        layers.passEnded(timed = true)
        count(r)
        passes += r
        pass += 1
      }
      val timed = passes.result()
      val consensus = Stats.median(timed.map(_.consensusS))
      val update = Stats.median(timed.flatMap(_.updateMs))
      System.err.println(f"[perfbench] ${workload.name} seed=$seed: ${timed.size} timed passes, " +
        f"consensus_s=${timed.map(_.consensusS).map(x => f"$x%.3f").mkString(",")}")

      val metrics =
        if (!traced) Seq(
          Metric("setup_s", Stats.median(setups), "s"),
          Metric("consensus_s", consensus, "s"),
          Metric("update_ms", update, "ms"),
          Metric("f1", timed.last.f1, "ratio"),
          Metric("live_heap_mb", liveHeapMb(workload), "MB"))
        else {
          Trace.write(Paths.get(opts.getOrElse("trace-dir", "."), s"trace-${workload.name}-seed$seed.jsonl"))
          layers.report(workload.models) ++ Seq(
            Metric("trace.consensus_s", consensus, "s"),
            Metric("trace.update_ms", update, "ms"),
            Metric("trace.passes", timed.size.toDouble, "count"))
        }
      problems.take(20).foreach(p => System.err.println(s"[perfbench] check failed: $p"))
      println(json(failed == 0, attempted, failed, metrics))
    } finally workload.close()
  }

  /** Heap in use after a full collection, with the workload's fitted models
    * (or SVI state) still referenced: the least of [[HeapReadings]] readings,
    * each right after a collection and a pause. Objects awaiting reference
    * processing (Spark's ContextCleaner frees broadcasts that way) go only in
    * a later collection; reading each pool as it was after the collection
    * leaves out the main thread's fresh allocation buffer.
    */
  def liveHeapMb(workload: Workload): Double = {
    val models = workload.models
    val readings = (1 to HeapReadings).map { _ =>
      System.gc()
      Thread.sleep(100)
      ManagementFactory.getMemoryPoolMXBeans.asScala
        .filter(p => p.getType == MemoryType.HEAP && p.getCollectionUsage != null)
        .map(_.getCollectionUsage.getUsed).sum
    }
    java.lang.ref.Reference.reachabilityFence(models)
    readings.min / (1024.0 * 1024.0)
  }

  def json(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[Metric]): String = {
    metrics.foreach(m => require(!m.value.isNaN && !m.value.isInfinite, s"metric ${m.name} is ${m.value}"))
    val ms = metrics.map(m => s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}""").mkString(", ")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$ms}}"""
  }

  private def usage(msg: String): Nothing = {
    System.err.println(s"perfbench: $msg\nusage: Main --workload <${Workload.names.mkString("|")}> " +
      "--seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]")
    sys.exit(2)
  }
}
