#!/bin/sh
# Print the end-to-end metrics and error_rate of every workload, one after
# another.  Run from the root of a checkout: sh perfbench/all.sh [SEED]
set -e
for workload in certified-decay beta0-sweep implicit-fine; do
    python3 perfbench/run.py --workload "$workload" --seed "${1:-1}" \
        --seconds 50 --trace 0
done
