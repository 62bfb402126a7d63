# The golden benches, sourced by check_golden.sh (which pins each entry's
# stdout in bench/golden/) and run_all.sh (which runs every entry into the
# bench_output.txt transcript). An entry is a bench name optionally followed
# by its arguments; the argument entries pin the fault paths (kills, chaos
# plans) that the default runs never reach.
GOLDEN_BENCHES=(
  table1_lrpc
  table2_urpc
  table3_ipc
  table4_loopback
  fig3_shm_vs_msg
  fig6_shootdown
  fig7_unmap
  fig8_twopc
  fig9_compute
  sync_scaling
  sec54_netperf
  sec54_webserver
  sec54_scaleout
  sec54_failover
  store_readwrite
  rack_serving
  polling_model
  ablation_urpc
  conn_scale
  "sec54_failover --quick --kill"
  "sec54_failover --quick --kill-db"
  "sec54_failover --quick --chaos-seed=7"
  "store_readwrite --quick --kill-leader"
  "store_readwrite --quick --chaos-seed=4"
  "rack_serving --quick --kill"
  "rack_serving --quick --chaos-seed=4"
)
