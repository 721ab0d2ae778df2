package metrics

import "math"

// Amplification computes the paper's two amplification metrics (§4).
//
// I/O amplification  = device_traffic  / dataset_size
// Net amplification  = network_traffic / dataset_size
//
// where dataset_size is the total user bytes (keys+values) of all
// requests issued during the experiment, device_traffic is the total
// bytes read+written on all storage devices, and network_traffic is the
// total bytes sent+received by all servers.
//
// A zero dataset makes the ratio undefined; this scalar helper returns
// 0 so report structs stay JSON-encodable, and the live /metrics gauges
// (AmplificationFamilies) report NaN instead — which every sink skips —
// so early scrapes never chart a bogus 0× ratio.
func Amplification(traffic, datasetSize uint64) float64 {
	if datasetSize == 0 {
		return 0
	}
	return float64(traffic) / float64(datasetSize)
}

// AmplificationFamilies are the two Figure 7 ratios as live gauges over
// a node's cumulative device bytes, network bytes and ingested user
// bytes, NaN until the dataset is non-empty.
func AmplificationFamilies(deviceBytes, netBytes, datasetSize uint64) []Family {
	ratio := func(traffic uint64) Sample {
		if datasetSize == 0 {
			return Value(math.NaN())
		}
		return Value(float64(traffic) / float64(datasetSize))
	}
	return []Family{
		Gauge("tebis_io_amplification",
			"Device traffic divided by dataset size (Figure 7).", ratio(deviceBytes)),
		Gauge("tebis_net_amplification",
			"Network traffic divided by dataset size (Figure 7).", ratio(netBytes)),
	}
}

// Efficiency converts total simulated cycles and an op count into the
// paper's cycles/op metric (Equation 1 collapses to this in the
// simulation, since we meter cycles directly instead of via mpstat).
func Efficiency(totalCycles, ops uint64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(totalCycles) / float64(ops)
}
