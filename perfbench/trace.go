package main

import (
	"time"

	"eternalgw/internal/obs"
)

// traceCapacity is how many completed traces the traced run keeps; the
// most recent ones form the sample.
const traceCapacity = 16384

// hop is one stage of the Figure 5 path as the tracer splits it.
type hop struct {
	name     string
	from, to obs.Stage
}

var hops = []hop{
	{"core.ingress_us", obs.StageGatewayAccept, obs.StageIIOPDecode},
	{"core.encap_us", obs.StageIIOPDecode, obs.StageMulticastSend},
	{"totem.order_us", obs.StageMulticastSend, obs.StageDeliver},
	{"replication.dispatch_us", obs.StageDeliver, obs.StageExecute},
	// execute→reply_write spans response ordering, duplicate suppression
	// and the reply write.
	{"replication.reply_us", obs.StageExecute, obs.StageReplyWrite},
}

// hopSamples splits every completed trace that started at or after
// since into the hops above. Breakdown's edges run between consecutive
// stages that fired, in datapath order, so a hop is the sum of the
// edges inside it; traces missing a hop's end stage are skipped.
func hopSamples(traces []*obs.Trace, since time.Time) map[string][]time.Duration {
	out := make(map[string][]time.Duration, len(hops))
	for _, t := range traces {
		if !t.Done || t.Start.Before(since) {
			continue
		}
		fired := make(map[obs.Stage]bool, len(t.Events))
		for _, e := range t.Events {
			fired[e.Stage] = true
		}
		complete := true
		for _, h := range hops {
			complete = complete && fired[h.from] && fired[h.to]
		}
		if !complete {
			continue
		}
		edges := t.Breakdown()
		for _, h := range hops {
			var d time.Duration
			for _, e := range edges {
				if e.From >= h.from && e.To <= h.to {
					d += e.D
				}
			}
			out[h.name] = append(out[h.name], d)
		}
	}
	return out
}
