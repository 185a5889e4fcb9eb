#!/bin/bash
# Run from the root of the checkout this script lives in.
cd "$(dirname "$0")/.." || exit 1
for b in table1 table5 table2 table3 table4 fig4 lb_migration lb_latency fig2 fig3 fig9 fig7 fig10 fig5 fig6 fig8; do
  echo "=== running $b at $(date +%H:%M:%S) ==="
  ./target/release/$b > results/$b.txt 2> results/$b.err
  echo "=== $b done at $(date +%H:%M:%S) ==="
done
echo ALL_EXPERIMENTS_DONE
