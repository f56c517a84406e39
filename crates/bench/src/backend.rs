//! The YCSB-runner adapter over the in-process standalone server, shared
//! by every bin that drives one (`standalone_ycsb`, `obs_overhead`).

use rmc_logstore::TableId;
use rmc_standalone::Client;
use rmc_ycsb::runner::{KvBackend, LatencySummary};

use crate::json::Json;

/// The table every standalone bench row reads and writes.
const TABLE: TableId = TableId(1);

/// Adapts a standalone-server client to the runner's backend trait.
///
/// Reads go through `read_view` — the server's lock-free, zero-copy
/// path, which is what a YCSB read of this design costs (and
/// where instrumentation overhead is proportionally largest).
#[derive(Debug)]
pub struct StandaloneBackend {
    /// The handle every op is issued through.
    pub client: Client,
}

impl KvBackend for StandaloneBackend {
    fn read(&self, key: &[u8]) -> Result<bool, String> {
        self.client
            .read_view(TABLE, key)
            .map(|v| v.is_some())
            .map_err(|e| e.to_string())
    }

    fn write(&self, key: &[u8], value: &[u8]) -> Result<(), String> {
        self.client
            .write(TABLE, key, value)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn multiread(&self, keys: &[Vec<u8>]) -> Result<usize, String> {
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        self.client
            .multiread_views(TABLE, &refs)
            .map(|vs| vs.iter().filter(|v| v.is_some()).count())
            .map_err(|e| e.to_string())
    }

    fn multiwrite(&self, ops: &[(Vec<u8>, Vec<u8>)]) -> Result<(), String> {
        let refs: Vec<(&[u8], &[u8])> = ops
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
            .collect();
        for outcome in self
            .client
            .multiwrite(TABLE, &refs)
            .map_err(|e| e.to_string())?
        {
            outcome.map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// Renders a latency summary as the reports' `*_latency_us` block.
pub fn latency_json(lat: &LatencySummary) -> Json {
    Json::obj(vec![
        ("count", lat.count.into()),
        ("mean", lat.mean_us.into()),
        ("p50", lat.p50_us.into()),
        ("p90", lat.p90_us.into()),
        ("p99", lat.p99_us.into()),
        ("max", lat.max_us.into()),
    ])
}
