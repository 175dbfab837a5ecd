package repro.perfbench.probes

import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.{PerfbenchListenerBus, SparkEnv}
import repro.perfbench.Trace

/** Counts the work Spark does while enabled, and records its jobs and
  * stages as spans. Times come from Spark's own task metrics.
  */
final class SparkProbe(spark: SparkSession) extends SparkListener {
  @volatile var counting = false
  private val totals = scala.collection.mutable.Map.empty[String, Double].withDefaultValue(0.0)
  private val jobStart = scala.collection.mutable.Map.empty[Int, Long]

  spark.sparkContext.addSparkListener(this)

  private def add(k: String, v: Double): Unit = if (counting) synchronized(totals(k) += v)

  /** Counter totals since the last call, once every event so far is seen. */
  def take(): Map[String, Double] = {
    PerfbenchListenerBus.drain(spark.sparkContext)
    synchronized { val out = totals.toMap; totals.clear(); out }
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    add("jobs", 1)
    jobStart(e.jobId) = e.time
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach(t => Trace.add("spark.job", t * 1000000L, e.time * 1000000L))
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
    add("stages", 1)
    val info = e.stageInfo
    for (s <- info.submissionTime; c <- info.completionTime) Trace.add("spark.stage", s * 1000000L, c * 1000000L)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    add("tasks", 1)
    val m = e.taskMetrics
    if (m != null) {
      val info = e.taskInfo
      add("shuffle_write_bytes", m.shuffleWriteMetrics.bytesWritten.toDouble)
      add("shuffle_read_bytes", m.shuffleReadMetrics.totalBytesRead.toDouble)
      add("task_result_bytes", m.resultSize.toDouble)
      add("executor_run_ms", m.executorRunTime.toDouble)
      add("executor_deserialize_ms", m.executorDeserializeTime.toDouble)
      // As the Spark UI defines it: task time not spent running, (de)serialising
      // or fetching the result.
      val delay = (info.finishTime - info.launchTime) - m.executorRunTime -
        m.executorDeserializeTime - m.resultSerializationTime - info.gettingResultTime
      add("scheduler_delay_ms", math.max(0L, delay).toDouble)
    }
  }
}

object SparkProbe {
  /** Bytes Spark's serializer writes for `values`: what a broadcast of them
    * ships before compression.
    */
  def serializedBytes(values: AnyRef*): Long = {
    val ser = SparkEnv.get.serializer.newInstance()
    values.map(v => ser.serialize(v).remaining().toLong).sum
  }
}
