"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately written with explicit scalar loops and
naive algorithms (exhaustive scans, double summations, Jacobi rotations)
so it shares no code path with the package under test.
"""

import csv
import io
import math

import numpy as np


def knn_oracle(train_X, train_y, test_X, k):
    """Exhaustive-scan KNN: sort by (squared distance, train index), majority vote,
    vote ties resolved by the nearest neighbor carrying a tied label."""
    predictions = []
    for j in range(test_X.shape[1]):
        scored = []
        for i in range(train_X.shape[1]):
            diff = test_X[:, j] - train_X[:, i]
            scored.append((float(diff @ diff), i))
        scored.sort()
        neighbors = [train_y[i] for _, i in scored[:k]]
        counts = {}
        for label in neighbors:
            counts[label] = counts.get(label, 0) + 1
        top = max(counts.values())
        tied = {label for label, c in counts.items() if c == top}
        for label in neighbors:
            if label in tied:
                predictions.append(label)
                break
    return np.array(predictions)


def kernel_averages_oracle(M, labels, sigma):
    """Double-loop class/inter kernel averages over ordered pairs i != j."""
    n = len(labels)
    K = int(max(labels)) + 1
    intra_sums = [0.0] * K
    intra_counts = [0] * K
    inter_sum = 0.0
    inter_count = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            value = math.exp(-M[i, j] / sigma**2)
            if labels[i] == labels[j]:
                intra_sums[labels[i]] += value
                intra_counts[labels[i]] += 1
            else:
                inter_sum += value
                inter_count += 1
    m_c = [
        math.exp(-(intra_sums[k] / intra_counts[k])) if intra_counts[k] else 1.0
        for k in range(K)
    ]
    m_o = math.exp(-(inter_sum / inter_count))
    return np.array(m_c), m_o


def objective_oracle(M, labels, sigma, rho, lam):
    """Double-loop objective: (1-rho) sum_k lam_k sum_intra kernel - rho sum_inter kernel."""
    n = len(labels)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            value = math.exp(-M[i, j] / sigma**2)
            if labels[i] == labels[j]:
                total += (1 - rho) * lam[labels[i]] * value
            else:
                total -= rho * value
    return total


def scatter_oracle(X, alpha):
    """Direct pairwise sum over ordered pairs: sum_{i != j} alpha_ij z_ij z_ij^T."""
    D, n = X.shape
    A = np.zeros((D, D))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            z = X[:, i] - X[:, j]
            A += alpha[i, j] * np.outer(z, z)
    return A


def jacobi_eigh(A, max_sweeps=200):
    """Cyclic Jacobi rotations for a symmetric matrix; returns (values desc, vectors)."""
    A = np.array(A, dtype=np.float64)
    n = A.shape[0]
    V = np.eye(n)
    for _ in range(max_sweeps):
        off = 0.0
        for i in range(n):
            for j in range(n):
                if i != j:
                    off += A[i, j] ** 2
        if math.sqrt(off) <= 1e-14 * (np.abs(np.diag(A)).max() + 1.0):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if A[p, q] == 0.0:
                    continue
                phi = 0.5 * math.atan2(2.0 * A[p, q], A[q, q] - A[p, p])
                c, s = math.cos(phi), math.sin(phi)
                G = np.eye(n)
                G[p, p] = c
                G[q, q] = c
                G[p, q] = s
                G[q, p] = -s
                A = G.T @ A @ G
                V = V @ G
    values = np.diag(A).copy()
    order = np.argsort(values)[::-1]
    return values[order], V[:, order]


def radon_oracle(pixels, angle_bins):
    """Scalar-loop silhouette projection with the integer centroid re-anchoring rule."""
    H, W = pixels.shape
    fg = [(i, j) for i in range(H) for j in range(W) if pixels[i, j] > 0]
    diag = math.hypot(H, W)
    bins = math.ceil(diag) | 1
    T = np.zeros((bins, angle_bins))
    if not fg:
        return T
    ci, cj = (H - 1) / 2.0, (W - 1) / 2.0
    mean_i = sum(i for i, _ in fg) / len(fg)
    mean_j = sum(j for _, j in fg) / len(fg)
    oi = math.floor(mean_i - ci + 0.5)
    oi = min(max(oi, max(i for i, _ in fg) - (H - 1)), min(i for i, _ in fg))
    oj = math.floor(mean_j - cj + 0.5)
    oj = min(max(oj, max(j for _, j in fg) - (W - 1)), min(j for _, j in fg))
    low = -diag / 2.0
    step = diag / (bins - 1)
    for i, j in fg:
        ic = i - ci - oi
        jc = j - cj - oj
        for a in range(angle_bins):
            theta = a * math.pi / angle_bins
            rho = ic * math.cos(theta) + jc * math.sin(theta)
            T[math.floor((rho - low) / step + 0.5), a] += 1.0
    return T


def r_transform_oracle(T):
    """Double-loop squared-mass angle profile."""
    bins, angle_bins = T.shape
    per_angle = [0.0] * angle_bins
    for a in range(angle_bins):
        for r in range(bins):
            per_angle[a] += T[r, a] ** 2
    total = sum(per_angle)
    return np.array([v / total for v in per_angle])


def confusion_oracle(true_labels, predicted_labels, K):
    counts = np.zeros((K, K), dtype=np.int64)
    for t, p in zip(true_labels, predicted_labels):
        counts[t][p] += 1
    return counts


def vote_oracle(frame_labels, frame_groups):
    """Tally-based majority vote with the earliest-frame tie rule."""
    order = []
    members = {}
    for label, group in zip(frame_labels, frame_groups):
        if group not in members:
            members[group] = []
            order.append(group)
        members[group].append(label)
    result = {}
    for group in order:
        labels = members[group]
        best = None
        for candidate in labels:
            count = labels.count(candidate)
            if best is None or count > best[0]:
                best = (count, candidate)
        result[group] = best[1]
    return result


def median_pairwise_oracle(points):
    """O(n^2) scan of pairwise distances, median by sorting."""
    n = points.shape[1]
    distances = []
    for i in range(n):
        for j in range(i + 1, n):
            diff = points[:, i] - points[:, j]
            distances.append(math.sqrt(float(diff @ diff)))
    distances.sort()
    m = len(distances)
    if m % 2 == 1:
        return distances[m // 2]
    return 0.5 * (distances[m // 2 - 1] + distances[m // 2])


def row_normalized(W):
    """The transition matrix T = D^-1 W of an affinity matrix W: each row divided by its sum."""
    return W / W.sum(axis=1, keepdims=True)


def transition_eig_oracle(T):
    """Dense nonsymmetric eigendecomposition of the transition matrix itself."""
    values, vectors = np.linalg.eig(T)
    order = np.argsort(values.real)[::-1]
    return values.real[order], vectors.real[:, order]


def diffusion_eig_oracle(X, sigma, kept):
    """Top `kept` transition eigenpairs by a dense eigh of the symmetric conjugate.

    The affinity comes from broadcast differences summed feature by
    feature, the conjugate is W / sqrt(d_i d_j) as a whole matrix, and
    every eigenpair is solved. Returns (values descending, unit right
    eigenvectors of T).
    """
    W = np.exp(-sum((x[:, None] - x[None, :]) ** 2 for x in X) / sigma**2)
    degree = W.sum(axis=1)
    values, vectors = np.linalg.eigh(W / np.sqrt(np.outer(degree, degree)))
    order = np.argsort(values)[::-1][:kept]
    phi = vectors[:, order] / np.sqrt(degree)[:, None]
    return values[order], phi / np.linalg.norm(phi, axis=0)


def csv_rows_oracle(header, rows, lead=None, tail=None):
    """CSV text written field by field through csv.writer: per row the `lead`
    field, each float as repr(float(v)), then the `tail` field."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for i, row in enumerate(rows):
        fields = [lead[i]] if lead is not None else []
        fields += [repr(float(v)) for v in row]
        fields += [tail[i]] if tail is not None else []
        writer.writerow(fields)
    return buffer.getvalue()


def sklp_fit_oracle(dataset, config, eta=1.0):
    """The SKLP fit loop from direct whole-matrix formulas.

    Distances from a D x n x n broadcast difference tensor, the scatter as
    2 (X diag(r) X^T - S W S^T) of the centred X in every iteration, and
    kernel sums from the full n x n exp(-M / sigma^2). eta < 1 relaxes the
    distances, M <- M + eta (d_P - M), a damped iteration toward the same
    fixed point as the fit's full step eta = 1. The loop stops when no log
    kernel average moves by more than config.rel_tolerance. Returns a dict
    with the best iterate's `matrix`, the `objective_history`, the
    `iteration` reached and the `best_index`.
    """
    X = np.asarray(dataset.features, dtype=np.float64)
    labels = np.asarray(dataset.labels)
    K = dataset.class_count
    D, n = X.shape
    rho = config.rho
    counts = np.bincount(labels, minlength=K)
    n_k = counts * (counts - 1)
    n_o = n * (n - 1) - n_k.sum()
    lam = n_o / (K * np.maximum(n_k, 1))
    d = K - 1 if config.target_dim == "auto" else config.target_dim
    d = max(1, min(d, D, n - 1))
    Y = (labels[:, None] == np.arange(K)[None, :]).astype(np.float64)
    centred = X - X.mean(axis=1, keepdims=True)

    def distances(points):
        diff = points[:, :, None] - points[:, None, :]
        return np.einsum("dij,dij->ij", diff, diff)

    def top_positive(A):
        values, vectors = np.linalg.eigh((A + A.T) / 2.0)
        order = np.argsort(values)[::-1]
        values, vectors = values[order], vectors[:, order[:d]]
        lead = np.argmax(np.abs(vectors), axis=0)
        vectors = vectors * np.where(vectors[lead, np.arange(d)] < 0, -1.0, 1.0)
        keep = min(d, int((values > 1e-10 * (np.abs(values).max() + 1.0)).sum()))
        assert keep > 0, "degenerate scatter"
        return values[:keep], vectors[:, :keep]

    def kernel_sums(M):
        kernel = np.exp(-M / sigma**2)
        np.fill_diagonal(kernel, 0.0)
        blocks = Y.T @ kernel @ Y
        return np.diag(blocks), blocks.sum() - np.trace(blocks)

    def log_averages(intra, inter):  # log m_ck (0 for singleton classes) and log m_o
        return np.append(np.where(n_k > 0, -intra / np.maximum(n_k, 1), 0.0), -inter / n_o)

    _, best = top_positive(centred @ centred.T / (n - 1))
    M = distances(best.T @ X)
    if config.kernel_bandwidth == "auto":
        sigma = float(np.median(np.sqrt(M[np.triu_indices(n, 1)])))
    else:
        sigma = float(config.kernel_bandwidth)
    intra, inter = kernel_sums(M)
    history = [(1.0 - rho) * float(lam @ intra) - rho * inter]
    best_index = iteration = 0
    for iteration in range(1, config.max_iters + 1):
        previous = log_averages(intra, inter)
        m_c = np.where(n_k > 0, np.exp(-intra / np.maximum(n_k, 1)), 1.0)
        W = np.full((K, K), rho / math.exp(-inter / n_o))
        np.fill_diagonal(W, -(1.0 - rho) * lam / m_c)
        S = centred @ Y
        A = 2.0 * (centred @ np.diag((W @ counts)[labels]) @ centred.T - S @ W @ S.T)
        _, P = top_positive(A)
        target = distances(P.T @ X)
        M = target if eta == 1.0 else M + eta * (target - M)
        intra, inter = kernel_sums(M)
        history.append((1.0 - rho) * float(lam @ intra) - rho * inter)
        if history[-1] > history[best_index]:
            best_index, best = iteration, P
        if np.abs(log_averages(intra, inter) - previous).max() <= config.rel_tolerance:
            break
    return {"matrix": best, "objective_history": history, "iteration": iteration, "best_index": best_index}
