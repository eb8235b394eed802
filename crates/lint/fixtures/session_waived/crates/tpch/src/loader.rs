fn load(cluster: &mut Cluster, p: PartitionId) {
    // dhlint: allow(session) — fixture exercising the waiver path for raw access
    let part = cluster.partition(p);
    part.touch();
}
