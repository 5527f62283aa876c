#!/usr/bin/awk -f
# Replay gate for `figures runtime`: for each fault rate, the virtual_s and
# rounds columns must be identical across the 1/2/4/8-thread rows.
#
#   figures --scale 40 --reps 1 runtime > sweep.txt
#   awk -f scripts/check_runtime_replay.awk sweep.txt
#
# Table rows are: threads faults ok q_per_s wall_ms virtual_s rounds.
$1 ~ /^[0-9]+$/ && NF == 7 {
    rows[$2]++
    threads[$2] = threads[$2] " " $1
    if (!($2 in want)) {
        want[$2] = $6 " " $7
    } else if (want[$2] != $6 " " $7) {
        printf "faults %s: threads %s gave virtual_s/rounds %s %s, threads 1 gave %s\n", $2, $1, $6, $7, want[$2]
        bad = 1
    }
}
END {
    for (f in rows) {
        n++
        if (threads[f] != " 1 2 4 8") {
            printf "faults %s: expected rows for threads 1 2 4 8, got%s\n", f, threads[f]
            bad = 1
        }
    }
    if (n == 0) {
        print "no runtime sweep rows found"
        bad = 1
    }
    if (!bad) printf "virtual_s and rounds identical across thread counts for %d fault rates\n", n
    exit bad
}
