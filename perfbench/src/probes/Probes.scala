package repro.perfbench.probes

import java.lang.management.ManagementFactory

import org.apache.spark.sql.SparkSession
import repro.core.{CpaConfig, CpaModel, CpaSvi, CpaVi, LocalEngine}
import repro.crowd.{Answer, CrowdDataset}
import repro.perfbench.{Layers, Metric, Span, Stats, Trace}
import repro.spark.{AnswerData, CpaSpark}

import scala.collection.mutable

/** The traced run's [[Layers]]: the same calls as the entry points, with
  * each engine wrapped in a [[TracingEngine]], Spark observed by a
  * [[SparkProbe]], and JVM counters read around every timed pass.
  *
  * Every per-layer metric is reported on every workload, as a median over
  * timed passes unless its name says otherwise; a layer that takes no part
  * in a workload reports 0.
  */
final class Probes extends Layers {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private def gcMs = ManagementFactory.getGarbageCollectorMXBeans.toArray
    .map(_.asInstanceOf[java.lang.management.GarbageCollectorMXBean].getCollectionTime.max(0L)).sum

  private var timed = false
  private var spark: Option[SparkProbe] = None
  /** Sums over the current timed pass. */
  private val pass = mutable.Map.empty[String, Double].withDefaultValue(0.0)
  /** One value per timed pass. */
  private val perPass = mutable.Map.empty[String, mutable.ArrayBuffer[Double]]
  private val generateS = mutable.ArrayBuffer.empty[Double]
  private var answers = 0L
  private val batchMs = mutable.ArrayBuffer.empty[Double]
  private var jvmAtStart = (0L, 0L, 0L)

  private def record(k: String, v: Double): Unit = perPass.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += v
  private def medianOf(k: String): Double = perPass.get(k).filter(_.nonEmpty).map(b => Stats.median(b.toSeq)).getOrElse(0.0)

  // ---- calls into the program ----

  override def fitLocal(ds: CrowdDataset, cfg: CpaConfig): CpaModel =
    fitWith(new TracingEngine(new LocalEngine(ds.answers), onSpark = false), ds, cfg)

  /** Mirrors `CpaSpark.fit`, with the engine wrapped. */
  override def fitSpark(session: SparkSession, ds: CrowdDataset, cfg: CpaConfig, partitions: Int): CpaModel = {
    val data = AnswerData.toDs(session, ds.answers, partitions).cache()
    try {
      val meanSize = if (ds.answers.isEmpty) 1.0 else ds.answers.iterator.map(_.labels.length).sum.toDouble / ds.answers.size
      fitWith(new TracingEngine(new CpaSpark.SparkEngine(session, data, ds.answers.size.toLong, meanSize), onSpark = true), ds, cfg)
    } finally data.unpersist()
  }

  private def fitWith(engine: TracingEngine, ds: CrowdDataset, cfg: CpaConfig): CpaModel = {
    val model = CpaVi.fitEngine(engine, ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, cfg)
    if (timed) pass("broadcast_bytes") += engine.broadcastBytes
    model
  }

  override def processBatch(svi: CpaSvi, batch: Seq[Answer]): Unit = {
    val a0 = threads.getCurrentThreadAllocatedBytes
    val t0 = System.nanoTime()
    svi.processBatch(batch)
    val ms = (System.nanoTime() - t0) / 1e6
    val alloc = threads.getCurrentThreadAllocatedBytes - a0
    if (timed) {
      batchMs += ms
      pass("batches") += 1
      pass("batch_items") += batch.iterator.map(_.item).distinct.size
      record("svi.alloc_mb_per_batch", alloc / 1048576.0)
    }
  }

  // ---- observation hooks ----

  override def generated(seconds: Double, n: Long): Unit = { generateS += seconds; answers = n }

  override def sessionStarted(session: SparkSession): Unit = spark = Some(new SparkProbe(session))

  override def passStarted(isTimed: Boolean): Unit = {
    timed = isTimed
    pass.clear()
    spark.foreach { p => p.take(); p.counting = isTimed }
    jvmAtStart = (threads.getTotalThreadAllocatedBytes, gcMs, os.getProcessCpuTime)
  }

  override def passEnded(isTimed: Boolean): Unit = if (isTimed) {
    val (alloc0, gc0, cpu0) = jvmAtStart
    record("jvm.alloc_mb", (threads.getTotalThreadAllocatedBytes - alloc0) / 1048576.0)
    record("jvm.gc_s", (gcMs - gc0) / 1e3)
    record("jvm.cpu_s", (os.getProcessCpuTime - cpu0) / 1e9)
    record("vi.iterations", pass("iterations"))
    record("vi.fits_converged", pass("converged"))
    record("predict_ms", pass("predict_ms"))
    record("spark.predict_broadcast_mb", pass("predict_broadcast_bytes") / 1048576.0)
    val iters = math.max(1.0, pass("iterations"))
    spark.foreach { p =>
      val c = p.take().withDefaultValue(0.0)
      p.counting = false
      Seq("jobs", "stages", "tasks").foreach(k => record(s"spark.$k", c(k) / iters))
      Seq("shuffle_write", "shuffle_read", "task_result").foreach(k =>
        record(s"spark.${k}_mb", c(s"${k}_bytes") / 1048576.0 / iters))
      Seq("executor_run", "executor_deserialize", "scheduler_delay").foreach(k =>
        record(s"spark.${k}_s", c(s"${k}_ms") / 1e3 / iters))
      record("spark.broadcast_mb", pass("broadcast_bytes") / 1048576.0 / iters)
    }
    if (pass("batches") > 0) {
      record("svi.items_per_batch", pass("batch_items") / pass("batches"))
      val b = batchMs.takeRight(pass("batches").toInt).toSeq
      val tenth = math.max(1, b.size / 10)
      record("svi.batch_ms_first_tenth", Stats.mean(b.take(tenth)))
      record("svi.batch_ms_last_tenth", Stats.mean(b.takeRight(tenth)))
    }
    timed = false
  }

  override def fitted(model: CpaModel, predictSeconds: Double): Unit = {
    pass("iterations") += model.iterations
    // CpaModel does not say whether the fit converged; stopping before
    // maxIter is the only sign of it visible from outside.
    if (model.iterations < model.cfg.maxIter) pass("converged") += 1
    pass("predict_ms") += predictSeconds * 1e3
    if (spark.isDefined) pass("predict_broadcast_bytes") += SparkProbe.serializedBytes(model)
  }

  override def snapshot(toModelSeconds: Double, predictSeconds: Double): Unit = {
    record("svi.toModel_ms", toModelSeconds * 1e3)
    pass("predict_ms") += predictSeconds * 1e3
  }

  // ---- report ----

  /** Per timed pass, the summed duration and self time of spans by name. */
  private def spanTotals(): Map[Int, Map[String, (Double, Double)]] = {
    val spans = Trace.resolved.filter(_.pass >= 0)
    val self = Trace.selfTimes(spans)
    spans.groupBy(_.pass).map { case (p, ss) =>
      p -> ss.groupBy(_.name).map { case (n, group: Seq[Span]) =>
        n -> (group.map(_.durationNs).sum / 1e9, group.map(s => self(s.id)).sum / 1e9)
      }
    }
  }

  override def report(last: Seq[(CrowdDataset, CpaModel)]): Seq[Metric] = {
    spanTotals().toSeq.sortBy(_._1).foreach { case (p, byName) =>
      def dur(n: String) = byName.get(n).map(_._1).getOrElse(0.0)
      def self(n: String) = byName.get(n).map(_._2).getOrElse(0.0)
      record("vi.kappa_s", dur("engine.computeKappa"))
      record("vi.stats_s", dur("engine.computeStats"))
      record("vi.bootstrap_s", dur("engine.bootstrapLambda"))
      record("vi.candidates_s", dur("engine.candidates"))
      record("vi.driver_s", self("fit"))
      if (spark.isDefined) {
        val iters = perPass("vi.iterations")(p).max(1.0)
        val engineSelf = Seq("computeKappa", "computeStats", "bootstrapLambda", "candidates")
          .map(n => self(s"engine.$n")).sum
        record("spark.engine_self_s", engineSelf / iters)
      }
    }
    val kernels = KernelReplay(last).withDefaultValue(0.0)
    val batches = batchMs.toSeq
    def m(name: String, unit: String, value: Double) = Metric(name, value, unit)
    Seq(
      m("crowd.generate_s", "s", Stats.median(generateS.toSeq)),
      m("crowd.answers", "count", answers.toDouble),
      m("vi.iterations", "count", medianOf("vi.iterations")),
      m("vi.fits_converged", "count", medianOf("vi.fits_converged")),
      m("vi.kappa_s", "s", medianOf("vi.kappa_s")),
      m("vi.stats_s", "s", medianOf("vi.stats_s")),
      m("vi.bootstrap_s", "s", medianOf("vi.bootstrap_s")),
      m("vi.candidates_s", "s", medianOf("vi.candidates_s")),
      m("vi.driver_s", "s", medianOf("vi.driver_s")),
      m("core.derive_ms", "ms", kernels("core.derive_ms")),
      m("core.kappaRow_ns_per_answer", "ns", kernels("core.kappaRow_ns_per_answer")),
      m("core.accumulate_ns_per_answer", "ns", kernels("core.accumulate_ns_per_answer")),
      m("core.phiRow_ms", "ms", kernels("core.phiRow_ms")),
      m("core.inclusionScores_ms", "ms", kernels("core.inclusionScores_ms")),
      m("core.communityCoins_ms", "ms", kernels("core.communityCoins_ms")),
      m("core.updateGlobals_ms", "ms", kernels("core.updateGlobals_ms")),
      m("predict_ms", "ms", medianOf("predict_ms")),
      m("svi.batch_samples", "count", batches.size.toDouble),
      m("svi.batch_ms_p50", "ms", if (batches.isEmpty) 0.0 else Stats.median(batches)),
      m("svi.batch_ms_p95", "ms", Stats.tail(batches, 0.95).getOrElse(0.0)),
      m("svi.batch_ms_first_tenth", "ms", medianOf("svi.batch_ms_first_tenth")),
      m("svi.batch_ms_last_tenth", "ms", medianOf("svi.batch_ms_last_tenth")),
      m("svi.items_per_batch", "count", medianOf("svi.items_per_batch")),
      m("svi.alloc_mb_per_batch", "MB", medianOf("svi.alloc_mb_per_batch")),
      m("svi.toModel_ms", "ms", medianOf("svi.toModel_ms")),
      m("spark.jobs", "count", medianOf("spark.jobs")),
      m("spark.stages", "count", medianOf("spark.stages")),
      m("spark.tasks", "count", medianOf("spark.tasks")),
      m("spark.shuffle_write_mb", "MB", medianOf("spark.shuffle_write_mb")),
      m("spark.shuffle_read_mb", "MB", medianOf("spark.shuffle_read_mb")),
      m("spark.task_result_mb", "MB", medianOf("spark.task_result_mb")),
      m("spark.broadcast_mb", "MB", medianOf("spark.broadcast_mb")),
      m("spark.executor_run_s", "s", medianOf("spark.executor_run_s")),
      m("spark.executor_deserialize_s", "s", medianOf("spark.executor_deserialize_s")),
      m("spark.scheduler_delay_s", "s", medianOf("spark.scheduler_delay_s")),
      m("spark.engine_self_s", "s", medianOf("spark.engine_self_s")),
      m("spark.predict_broadcast_mb", "MB", medianOf("spark.predict_broadcast_mb")),
      m("jvm.alloc_mb", "MB", medianOf("jvm.alloc_mb")),
      m("jvm.gc_s", "s", medianOf("jvm.gc_s")),
      m("jvm.cpu_s", "s", medianOf("jvm.cpu_s")))
  }
}
