"""Dense masked-softmax reference for the edge-list attention in `stgw.gat`.

This is the N x N form of the attention that `stgw.gat` computes over the
graph's edge list: logits on every node pair, -inf outside the closed
neighborhoods, a row softmax, and reverse-mode gradients on full matrices.
It lives here only so the tests can check the edge-list code against it; the
public functions take the `RouteGraph`, as `stgw.gat` does, and build the
boolean N x N mask from it.
"""

import numpy as np

from stgw.gat import LEAKY_SLOPE, _pair_outputs, bce_loss, elu


def leaky_relu(x):
    return np.where(x < 0, LEAKY_SLOPE * x, x)


def leaky_grad(x):
    return np.where(x < 0, LEAKY_SLOPE, 1.0)


def elu_grad(x):
    return np.exp(np.minimum(x, 0.0))


def neighborhood_mask(graph):
    """Boolean N x N first-order neighborhoods including self-loops."""
    mask = graph.dense_adjacency() > 0
    np.fill_diagonal(mask, True)
    return mask


def head_attention(W, a, X, mask):
    """Masked-softmax attention for one head; returns (A, cache for backward)."""
    Z = X @ W.T
    o = W.shape[0]
    s = Z @ a[:o]
    r = Z @ a[o:]
    E = s[:, None] + r[None, :]
    logits = np.where(mask, leaky_relu(E), -np.inf)
    logits -= logits.max(axis=1, keepdims=True)
    ex = np.exp(logits)
    A = ex / ex.sum(axis=1, keepdims=True)
    return A, (Z, E, A)


def head_forward(W, a, X, mask):
    A, (Z, E, _) = head_attention(W, a, X, mask)
    U = A @ Z
    return elu(U), (Z, E, A, U)


def head_backward(W, a, X, mask, cache, dH):
    Z, E, A, U = cache
    dU = dH * elu_grad(U)
    dA = dU @ Z.T
    dZ = A.T @ dU
    dP = A * (dA - (A * dA).sum(axis=1, keepdims=True))
    dE = dP * leaky_grad(E)
    ds = dE.sum(axis=1)
    dr = dE.sum(axis=0)
    o = W.shape[0]
    da = np.concatenate([Z.T @ ds, Z.T @ dr])
    dZ += np.outer(ds, a[:o]) + np.outer(dr, a[o:])
    dW = dZ.T @ X
    dX = dZ @ W
    return dW, da, dX


def attention_coefficients(layer, X, graph):
    mask = neighborhood_mask(graph)
    return [head_attention(W, a, X, mask)[0] for W, a in zip(layer.weights, layer.attn)]


def layer_forward(layer, X, graph):
    mask = neighborhood_mask(graph)
    return np.concatenate([head_forward(W, a, X, mask)[0]
                           for W, a in zip(layer.weights, layer.attn)], axis=1)


def model_forward(model, X, mask):
    caches1, outs1 = [], []
    for W, a in zip(model.layer1.weights, model.layer1.attn):
        H, cache = head_forward(W, a, X, mask)
        outs1.append(H)
        caches1.append(cache)
    X1 = np.concatenate(outs1, axis=1)
    X2, cache2 = head_forward(model.layer2.weights[0], model.layer2.attn[0], X1, mask)
    return X1, X2, (caches1, cache2)


def loss_and_grads(model, X, graph, pairs, labels):
    """(loss, grads, X2) with grads ordered like model.parameters()."""
    mask = neighborhood_mask(graph)
    X1, X2, (caches1, cache2) = model_forward(model, X, mask)
    xi, xj, prod, q = _pair_outputs(X2, model.theta, pairs)
    draw = (q - labels) / len(pairs)
    dtheta = prod.T @ draw
    dprod = np.outer(draw, model.theta)
    dX2 = np.zeros_like(X2)
    np.add.at(dX2, pairs[:, 0], dprod * xj)
    np.add.at(dX2, pairs[:, 1], dprod * xi)
    dW2, da2, dX1 = head_backward(model.layer2.weights[0], model.layer2.attn[0],
                                  X1, mask, cache2, dX2)
    o1 = model.layer1.out_dim
    dW1s, da1s = [], []
    for k, (W, a) in enumerate(zip(model.layer1.weights, model.layer1.attn)):
        dW, da, _ = head_backward(W, a, X, mask, caches1[k],
                                  dX1[:, k * o1:(k + 1) * o1])
        dW1s.append(dW)
        da1s.append(da)
    return bce_loss(q, labels), dW1s + da1s + [dW2, da2, dtheta], X2


def transition(model, X, graph):
    X1 = layer_forward(model.layer1, X, graph)
    mask = neighborhood_mask(graph)
    A, _ = head_attention(model.layer2.weights[0], model.layer2.attn[0], X1, mask)
    return np.where(mask, A, 0.0)
