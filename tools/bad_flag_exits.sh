#!/bin/sh
# Give each flag whose number the parser checks one bad value, and each
# command that sums the series an --l-max below its floor, and check that
# the command exits 2 with one line on stderr and nothing on stdout.  A
# line of the list below is a command and its flags, split at spaces.
# The arguments are the command that runs coulscat:
#
#     sh tools/bad_flag_exits.sh coulscat
#     PYTHONPATH=src sh tools/bad_flag_exits.sh python -m coulscat.cli
# -f: the flags are split into words, never expanded as file patterns
set -uf
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failed=0
while read -r command flags; do
    # $flags unquoted: one word per flag
    "$@" "$command" $flags </dev/null >"$tmp/out" 2>"$tmp/err"
    status=$?
    lines=$(wc -l <"$tmp/err")
    if [ "$status" -eq 2 ] && [ "$lines" -eq 1 ] && [ ! -s "$tmp/out" ]; then
        echo "ok   $command $flags: $(cat "$tmp/err")"
    else
        echo "FAIL $command $flags: exit $status, $lines stderr lines" >&2
        cat "$tmp/out" "$tmp/err" >&2
        failed=1
    fi
done <<'LIST'
profile-delta --delta-min=nan
profile-delta --delta-max=inf
profile-delta --delta-step=0
angular --theta-n=2.5
angular --delta=abc
conservation --sphere-n=-1
optical --eta-n=0
optical --eta-min=0
optical --eta-max=-inf
energy-scan --e-n=many
energy-scan --e-min-kev=-5
energy-scan --e-max-kev=inf
energy-scan --energies-kev=3.8,0
angular --Z1=100000000000000000000
energy-scan --Z2=-9007199254740993
angular --eta=1 --delta=0 --theta-n=3 --eps=1e-2 --l-max=50
profile-delta --eta=1 --theta=0.5 --eps=1e-2 --l-max=50
optical --eta-min=1 --eta-max=2 --eps=1e-2 --l-max=50
optical --model=square-well --energy-mev=1 --well-radius-fm=11.4 --eps=1e-2 --l-max=50
conservation --eta=1 --eps=1e-2 --l-max=50
LIST
exit $failed
