package org.apache.spark

/** Access to the driver's listener bus, which Spark keeps package-private:
  * the probes wait for it to drain before reading their Spark counters, so
  * the counts of a pass include its last job.
  */
object PerfbenchListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
